package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Stats

class StreamGenSpec extends AnyFunSuite {

  /** Unbiased (n−1) sample standard deviation. */
  private def std(xs: Seq[Double]): Double = {
    val m = Stats.mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1))
  }

  test("normalize maps to [0,1] preserving order; constant maps to zeros") {
    val n = StreamGen.normalize(Array(2.0, 4.0, 6.0))
    assert(n.toSeq == Seq(0.0, 0.5, 1.0))
    assert(StreamGen.normalize(Array(3.0, 3.0)).toSeq == Seq(0.0, 0.0))
  }

  test("interpolatedProxy with beta=1 is a monotone transform of g (r=1)") {
    val g = Array.tabulate(1000)(i => (i % 37).toDouble)
    val p = StreamGen.interpolatedProxy(g, 1.0, seed = 1)
    assert(math.abs(Stats.pearson(p.toSeq, g.toSeq) - 1.0) < 1e-9)
  }

  test("interpolatedProxy with beta=0 is pure noise (r~0)") {
    val g = Array.tabulate(5000)(i => (i % 37).toDouble)
    val p = StreamGen.interpolatedProxy(g, 0.0, seed = 1)
    assert(math.abs(Stats.pearson(p.toSeq, g.toSeq)) < 0.05)
  }

  test("interpolatedProxy stays in [0,1]") {
    val g = Array.tabulate(1000)(i => math.sin(i * 0.1) * 50)
    val p = StreamGen.interpolatedProxy(g, 0.6, seed = 2)
    assert(p.forall(x => x >= 0 && x <= 1))
  }

  test("calibrateProxy hits the target correlation within tolerance") {
    val g = StreamGen.videoLike("cal", 30000, 0.5, 0.9, seed = 5).statistic
    Seq(0.6, 0.8, 0.92).foreach { target =>
      val p = StreamGen.calibrateProxy(g, target, seed = 9)
      val r = Stats.pearson(p.toSeq, g.toSeq)
      assert(math.abs(r - target) < 0.02, s"target $target got $r")
    }
  }

  test("videoLike hits the target predicate positivity rate") {
    Seq(0.37, 0.5, 0.89).foreach { p =>
      val ds = StreamGen.videoLike("v", 100000, p, 0.9, seed = 13)
      val measured = ds.predicate.count(identity).toDouble / ds.length
      assert(math.abs(measured - p) < 0.06, s"target $p measured $measured")
    }
  }

  test("videoLike: predicate is exactly count > 0") {
    val ds = StreamGen.videoLike("v", 10000, 0.5, 0.9, seed = 14)
    (0 until ds.length).foreach(i => assert(ds.predicate(i) == (ds.statistic(i) > 0)))
  }

  test("videoLike counts are non-negative integers") {
    val ds = StreamGen.videoLike("v", 10000, 0.5, 0.9, seed = 15)
    ds.statistic.foreach { c => assert(c >= 0 && c == math.rint(c)) }
  }

  test("videoLike has temporal locality: block means vary far beyond iid noise") {
    val ds = StreamGen.videoLike("v", 200000, 0.5, 0.9, seed = 16)
    val block = 20000
    val blockMeans = ds.statistic.grouped(block).map(b => b.sum / b.length).toSeq
    val globalStd = std(ds.statistic.toSeq)
    val iidStd = globalStd / math.sqrt(block.toDouble)
    // under iid the block means would concentrate ~iidStd; smooth drift
    // makes them vary orders of magnitude more
    assert(std(blockMeans) > 5 * iidStd,
      s"block-mean std ${std(blockMeans)} vs iid $iidStd")
  }

  test("videoLike is deterministic in its seed") {
    val a = StreamGen.videoLike("v", 5000, 0.5, 0.9, seed = 17)
    val b = StreamGen.videoLike("v", 5000, 0.5, 0.9, seed = 17)
    assert(a.statistic.toSeq == b.statistic.toSeq)
    assert(a.proxy.toSeq == b.proxy.toSeq)
  }

  test("textLike hits its predicate rate and bounded statistic") {
    val ds = StreamGen.textLike("t", 100000, 0.56, 0.79, baseDwell = 2000, seed = 18)
    val measured = ds.predicate.count(identity).toDouble / ds.length
    assert(math.abs(measured - 0.56) < 0.08, s"measured $measured")
    ds.statistic.foreach(s => assert(s >= 0 && s <= 1))
  }

  test("textLike proxy correlates with the masked statistic at the target") {
    val ds = StreamGen.textLike("t", 100000, 0.56, 0.79, baseDwell = 2000, seed = 19)
    val masked = Array.tabulate(ds.length)(i => if (ds.predicate(i)) ds.statistic(i) else 0.0)
    val r = Stats.pearson(ds.proxy.toSeq, masked.toSeq)
    assert(math.abs(r - 0.79) < 0.03, s"measured r=$r")
  }

  test("adversarial: statistic distribution matches the substream construction") {
    val ds = StreamGen.adversarial("a", 50000, nShifts = 0, seed = 20)
    // with means in [0,3],[3,6],[6,9] and equal mixing, the global mean is in [1.5, 7.5]
    val m = Stats.mean(ds.statistic.toSeq)
    assert(m > 0.0 && m < 9.0, s"mean $m outside plausible range")
  }

  test("adversarial: shifts change the segment-level parameters") {
    val ds = StreamGen.adversarial("a", 50000, nShifts = 3, seed = 21)
    val segMeans = ds.truthPerSegment(10000, usePredicate = false)
    // at least two segments should differ materially given 3 shifts
    assert(segMeans.max - segMeans.min > 0.1, s"no visible shift in $segMeans")
  }

  test("adversarial: proxy is in [0,1] and correlates positively with g") {
    val ds = StreamGen.adversarial("a", 30000, nShifts = 2, seed = 22)
    assert(ds.proxy.forall(x => x >= 0 && x <= 1))
    assert(Stats.pearson(ds.proxy.toSeq, ds.statistic.toSeq) > 0.3)
  }

  test("adversarial is deterministic in its seed") {
    val a = StreamGen.adversarial("a", 5000, 2, seed = 23)
    val b = StreamGen.adversarial("a", 5000, 2, seed = 23)
    assert(a.statistic.toSeq == b.statistic.toSeq)
  }

  test("Datasets catalogue generates all six streams") {
    Datasets.names.foreach { n =>
      val ds = Datasets.generate(n, length = 5000)
      assert(ds.length == 5000)
      assert(ds.name == n)
    }
  }

  test("Datasets rejects unknown names") {
    assertThrows[IllegalArgumentException](Datasets.generate("nope", 100))
  }

  test("adversarialSuite has 5 x perShift streams with the right shift counts") {
    val suite = Datasets.adversarialSuite(2000, perShift = 2).toVector
    assert(suite.size == 10)
    assert(suite.map(_._1).distinct.sorted == Seq(1, 2, 3, 4, 5))
  }
}
