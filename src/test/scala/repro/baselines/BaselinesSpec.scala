package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.StreamGen
import repro.util.Stats

class BaselinesSpec extends AnyFunSuite {

  private val ds = StreamGen.videoLike("bl", 20000, targetP = 0.5, targetR = 0.9, seed = 31)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 4000, budgetPerSegment = 100)

  // ---------------- uniform sampling ----------------

  test("uniform: total oracle calls equal the total budget") {
    val r = new UniformSampling().run(ds, query, 1)
    assert(r.oracleCalls == 500)
  }

  test("uniform: deterministic in the seed, varies across seeds") {
    val a = new UniformSampling().run(ds, query, 5)
    assert(a.perSegment.toSeq == new UniformSampling().run(ds, query, 5).perSegment.toSeq)
    assert(a.perSegment.toSeq != new UniformSampling().run(ds, query, 6).perSegment.toSeq)
  }

  test("uniform: per-segment estimates are approximately unbiased") {
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    val trials = (1 to 150).map(s => new UniformSampling().run(ds, query, s.toLong))
    (0 until 5).foreach { t =>
      val m = Stats.mean(trials.map(_.perSegment(t)))
      assert(math.abs(m - truths(t)) < 0.2, s"segment $t mean $m vs ${truths(t)}")
    }
  }

  test("uniform: budget larger than the stream samples everything exactly") {
    val small = StreamGen.videoLike("s", 400, 0.5, 0.9, seed = 4)
    val q = QueryConfig(AggFunc.Avg, usePredicate = false, segmentLength = 100, budgetPerSegment = 200)
    val r = new UniformSampling().run(small, q, 1)
    val truths = small.truthPerSegment(100, usePredicate = false)
    r.perSegment.zip(truths).foreach { case (e, t) => assert(math.abs(e - t) < 1e-9) }
    assert(r.oracleCalls == 400)
  }

  test("uniform: final estimate matches the overall truth in expectation") {
    val truth = ds.truthOverall(usePredicate = true)
    val finals = (1 to 150).map(s => new UniformSampling().run(ds, query, s.toLong).finalEstimate)
    assert(math.abs(Stats.mean(finals) - truth) < 0.1)
  }

  test("uniform: a segment whose only matches are −0.0 estimates −0.0, as the other algorithms do") {
    val n = 40
    val proxy = Array.tabulate(n)(i => i / n.toDouble)
    val statistic = Array.tabulate(n)(i => if (i < 20) -0.0 else 1.5)
    val d = StreamDataset("signed-zero", proxy, statistic, Array.fill(n)(true))
    Seq(AggFunc.Avg, AggFunc.Sum).foreach { agg =>
      val q = QueryConfig(agg, segmentLength = 20, budgetPerSegment = 5)
      val r = new UniformSampling().run(d, q, 1)
      assert(java.lang.Double.doubleToLongBits(r.perSegment(0)) == java.lang.Double.doubleToLongBits(-0.0), s"$agg")
      assert(r.perSegment(1) == (if (agg == AggFunc.Avg) 1.5 else 1.5 * 20))
    }
  }

  // ---------------- fixed stratified ----------------

  test("stratified: the full per-segment budget is used (spill on sparse strata)") {
    val r = new FixedStratified().run(ds, query, 1)
    assert(r.oracleCalls == 500, s"got ${r.oracleCalls}")
  }

  test("stratified: strata are the fixed equal-width proxy intervals") {
    // proxies in [0,1]: boundaries must be 1/3, 2/3 regardless of data
    val algo = new FixedStratified(3)
    val r = algo.run(ds, query, 2)
    assert(r.perSegment.length == 5)
  }

  test("stratified: estimates are approximately unbiased") {
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    val trials = (1 to 150).map(s => new FixedStratified().run(ds, query, s.toLong))
    (0 until 5).foreach { t =>
      val m = Stats.mean(trials.map(_.perSegment(t)))
      assert(math.abs(m - truths(t)) < 0.2, s"segment $t mean $m vs ${truths(t)}")
    }
  }

  test("stratified: K=1 equals per-segment uniform sampling semantics") {
    val r = new FixedStratified(1).run(ds, query, 3)
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    r.perSegment.zip(truths).foreach { case (e, t) => assert(math.abs(e - t) < 1.5) }
  }

  test("stratified: deterministic in the seed") {
    val a = new FixedStratified().run(ds, query, 9)
    val b = new FixedStratified().run(ds, query, 9)
    assert(a.perSegment.toSeq == b.perSegment.toSeq)
  }

  test("stratified: a proxy outside [0, 1] is rejected, naming its idx") {
    val proxy = Array.tabulate(10)(i => i / 10.0)
    proxy(7) = 1.25
    val bad = StreamDataset("oob", proxy, proxy, proxy.map(_ => true))
    val q = QueryConfig(AggFunc.Avg, segmentLength = 5, budgetPerSegment = 2)
    val e = intercept[IllegalArgumentException](new FixedStratified().run(bad, q, 1))
    assert(e.getMessage.contains("1.25 at idx 7"), e.getMessage)
  }

  test("stratified beats uniform on a proxy-separable stream (variance)") {
    val truths = ds.truthPerSegment(query.segmentLength, usePredicate = true)
    def rmse(algo: StreamAlgorithm): Double = {
      val errs = (1 to 120).flatMap { s =>
        algo.run(ds, query, s.toLong).perSegment.zip(truths).map { case (e, t) => e - t }
      }
      Stats.rmse(errs)
    }
    val u = rmse(new UniformSampling)
    val f = rmse(new FixedStratified)
    assert(f < u * 1.25, s"stratified rmse $f not competitive with uniform $u")
  }
}
