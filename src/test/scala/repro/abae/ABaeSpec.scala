package repro.abae

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.StreamGen
import repro.util.Stats

class ABaeSpec extends AnyFunSuite {

  private val ds = StreamGen.videoLike("ab", 20000, targetP = 0.5, targetR = 0.9, seed = 41)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 4000, budgetPerSegment = 100)

  test("total oracle calls equal the total budget NT") {
    val r = new ABae().run(ds, query, 1)
    assert(r.oracleCalls == 500, s"got ${r.oracleCalls}")
  }

  test("a total budget N·T below K caps the pilot: at most N·T calls, finite estimates") {
    def prefix(n: Int) = StreamDataset("ab", ds.proxy.take(n), ds.statistic.take(n), ds.predicate.take(n))
    // One 4000-record segment at N = 1 or 2, or two at N = 1.
    Seq((prefix(4000), 1), (prefix(4000), 2), (prefix(8000), 1)).foreach { case (d, n) =>
      val q = query.copy(budgetPerSegment = n)
      val nt = d.segments(q.segmentLength).size * n
      assert(nt < 3)
      val r = new ABae(3).run(d, q, 1)
      assert(r.oracleCalls <= nt, s"N·T = $nt: ${r.oracleCalls} calls")
      assert((r.perSegment :+ r.finalEstimate).forall(java.lang.Double.isFinite), s"N·T = $nt")
    }
  }

  test("sample reuse: pilot and stage-2 samples never overlap") {
    // if they overlapped, dedup in OracleModel would push calls below NT
    (1L to 10L).foreach { s =>
      assert(new ABae().run(ds, query, s).oracleCalls == 500)
    }
  }

  test("deterministic in the seed, varies across seeds") {
    val a = new ABae().run(ds, query, 5)
    assert(a.perSegment.toSeq == new ABae().run(ds, query, 5).perSegment.toSeq)
    assert(a.perSegment.toSeq != new ABae().run(ds, query, 6).perSegment.toSeq)
  }

  test("final estimate is approximately unbiased") {
    val truth = ds.truthOverall(usePredicate = true)
    val finals = (1 to 120).map(s => new ABae().run(ds, query, s.toLong).finalEstimate)
    assert(math.abs(Stats.mean(finals) - truth) < 0.12,
      s"mean ${Stats.mean(finals)} vs truth $truth")
  }

  test("per-segment estimates from restricted samples track segment truths") {
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    val trials = (1 to 120).map(s => new ABae().run(ds, query, s.toLong))
    (0 until 5).foreach { t =>
      val m = Stats.mean(trials.map(_.perSegment(t)))
      assert(math.abs(m - truths(t)) < 0.35, s"segment $t mean $m vs ${truths(t)}")
    }
  }

  test("ABae beats uniform sampling on the full-query RMSE (its design goal)") {
    val truth = ds.truthOverall(usePredicate = true)
    def fullRmse(algo: StreamAlgorithm): Double =
      Stats.rmse((1 to 120).map(s => algo.run(ds, query, s.toLong).finalEstimate - truth))
    val u = fullRmse(new repro.baselines.UniformSampling)
    val a = fullRmse(new ABae)
    assert(a < u, s"ABae rmse $a not below uniform $u")
  }

  test("no-predicate queries run and stay near truth") {
    val q = query.copy(usePredicate = false)
    val truth = ds.truthOverall(usePredicate = false)
    val finals = (1 to 60).map(s => new ABae().run(ds, q, s.toLong).finalEstimate)
    assert(math.abs(Stats.mean(finals) - truth) < 0.12)
  }
}
