package perfbench

import org.scalatest.funsuite.AnyFunSuite

class ClockSpec extends AnyFunSuite {

  test("busy and steal ticks from the cpu line of /proc/stat") {
    // user nice system idle iowait irq softirq steal guest guest_nice
    assert(Clock.ticks("cpu  100 5 20 900 3 1 2 40 0 0") == ((128L, 40L)))
    assert(Clock.ticks("cpu 1 2 3 4 5 6 7") == ((1L + 2 + 3 + 6 + 7, 0L)))
  }

  test("the stolen share is steal over busy plus steal; idle time does not count") {
    val t = Stamp(0L, 1000L, 100L).until(Stamp(2000000000L, 1300L, 200L))
    assert(t.wallMs == 2000.0)
    assert(t.stealFrac == 0.25)
    assert(t.ms == 1500.0)
    assert(Stamp(0L, 5L, 5L).until(Stamp(1000000L, 5L, 5L)) == Timing(1.0, 0.0))
  }

  test("trials per second sum trials over summed call time less steal") {
    def call(a: String, trials: Int, wallMs: Double, steal: Double) =
      McCall("op", 1, 0, a, trials, 0L, Timing(wallMs, steal), point = None, error = None)
    val calls = Seq(call("abae", 24, 4000.0, 0.0), call("abae", 24, 16000.0, 0.5), call("uniform", 200, 1.0, 0.0))
    assert(McPhase.trialsPerSecond(calls, "abae") == 4.0)
  }

  test("episode latencies are reported less steal") {
    val e = Episode(1, 0, 0L, "q", 0L, first = Timing(4000.0, 0.25), segments = Vector(Timing(2000.0, 0.0),
      Timing(3000.0, 0.5)), callsPerSegment = Vector(500L, 500L, 500L), result = None, error = None)
    assert(e.firstEstimateMs == 3000.0)
    assert(e.segmentMs == Vector(2000.0, 1500.0))
  }
}
