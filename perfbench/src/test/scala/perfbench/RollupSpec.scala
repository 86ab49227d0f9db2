package perfbench

import org.scalatest.funsuite.AnyFunSuite

class RollupSpec extends AnyFunSuite {

  private def task(stage: Int, runMs: Long, gc: Long = 0, bytes: Long = 0) =
    TaskEvent(stage, runMs, cpuNs = runMs * 1000000, gcMs = gc, deserMs = 1, shuffleWriteBytes = bytes)

  test("jobs, stages and tasks roll up per group") {
    val jobs = Seq(
      JobEvent(0, "q/0", Seq(0, 1)),
      JobEvent(1, "q/0", Seq(2)),
      JobEvent(2, "q/1", Seq(3)),
    )
    val stages = Seq(StageEvent(0), StageEvent(1), StageEvent(2), StageEvent(3))
    val tasks = Seq(task(0, 10, gc = 2, bytes = 100), task(1, 30), task(2, 20), task(3, 5), task(3, 7))
    val g = Rollup.byGroup(jobs, stages, tasks)
    assert(g("q/0") == GroupTotals(2, 3, 3, Vector(10, 30, 20), 60.0, 2, 3, 100))
    assert(g("q/1").jobs == 1 && g("q/1").stages == 1 && g("q/1").tasks == 2)
    assert(g("q/1").maxTaskMs == 7)
  }

  test("a stage shared by two jobs belongs to the first, and retries count once") {
    val jobs = Seq(JobEvent(5, "b", Seq(7)), JobEvent(4, "a", Seq(7, 8)))
    val stages = Seq(StageEvent(7), StageEvent(7), StageEvent(8))
    val g = Rollup.byGroup(jobs, stages, Seq(task(7, 1), task(8, 1)))
    assert(g("a").stages == 2 && g("a").tasks == 2)
    assert(g("b").stages == 0 && g("b").tasks == 0 && g("b").jobs == 1)
  }

  test("tasks of stages no job listed are dropped") {
    val g = Rollup.byGroup(Seq(JobEvent(0, "a", Seq(0))), Nil, Seq(task(0, 3), task(99, 50)))
    assert(g.keySet == Set("a"))
    assert(g("a").taskRunMs == Vector(3))
  }

  test("skew is the slowest task over the median, floored at 1 ms") {
    assert(GroupTotals(1, 1, 3, Vector(10, 20, 60), 0, 0, 0, 0).skew == 3.0)
    assert(GroupTotals(1, 1, 3, Vector(0, 0, 9), 0, 0, 0, 0).skew == 9.0)
    assert(Rollup.Empty.skew == 1.0)
  }
}
