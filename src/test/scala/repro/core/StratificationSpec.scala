package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.{Rng, Stats}

class StratificationSpec extends AnyFunSuite {

  private def uniformStream(n: Int, seed: Long = 5): StreamDataset = {
    val proxy = Array.tabulate(n)(i => Rng.uniform(seed, i.toLong))
    StreamDataset("u", proxy, proxy.map(_ * 2), proxy.map(_ > 0.5))
  }

  test("quantileStrata yields K-1 sorted boundaries") {
    val b = Stratification.quantileStrata((0 until 1000).map(_ / 1000.0), 3)
    assert(b.length == 2)
    assert(b(0) < b(1))
    assert(math.abs(b(0) - 0.333) < 0.01 && math.abs(b(1) - 0.666) < 0.01)
  }

  test("split partitions the segment: strata are disjoint and cover it") {
    val ds = uniformStream(5000)
    val seg = 0 until 5000
    val b = Stratification.quantileStrata(seg.map(ds.proxy), 3)
    val strata = Stratification.split(ds, seg, b)
    assert(strata.map(_.size).sum == 5000)
    assert(strata.flatten.toSet.size == 5000)
    // each stratum's proxies respect the boundary intervals
    strata.zipWithIndex.foreach { case (idxs, k) =>
      idxs.foreach(i => assert(Stats.stratumOf(ds.proxy(i.toInt), b) == k))
    }
  }

  test("quantile split gives roughly equal strata on continuous proxies") {
    val ds = uniformStream(9000)
    val seg = 0 until 9000
    val b = Stratification.quantileStrata(seg.map(ds.proxy), 3)
    val strata = Stratification.split(ds, seg, b)
    strata.foreach(s => assert(math.abs(s.size - 3000) <= 2, s"stratum size ${s.size}"))
  }

  private def smoothed(h: Seq[Array[Double]], alpha: Double): Array[Double] =
    h.foldLeft(Stats.Ewma(alpha, h.head.length))(_ add _).value

  test("smooth with alpha=1 returns the newest boundaries") {
    val h = Seq(Array(0.1, 0.2), Array(0.4, 0.6))
    assert(smoothed(h, 1.0).toSeq == Seq(0.4, 0.6))
  }

  test("smooth with alpha=0 averages the history") {
    val h = Seq(Array(0.0, 0.2), Array(0.4, 0.6))
    val s = smoothed(h, 0.0)
    assert(math.abs(s(0) - 0.2) < 1e-12 && math.abs(s(1) - 0.4) < 1e-12)
  }

  test("smoothed boundaries of sorted histories stay sorted") {
    val h = Seq(Array(0.1, 0.5), Array(0.3, 0.4), Array(0.2, 0.9))
    val s = smoothed(h, 0.8)
    assert(s(0) <= s(1))
  }

  test("split with K=1 puts everything in one stratum") {
    val ds = uniformStream(100)
    val strata = Stratification.split(ds, 0 until 100, Array.empty)
    assert(strata.length == 1 && strata(0).size == 100)
  }

  test("degenerate constant proxies: all records land in the last stratum") {
    val proxy = Array.fill(100)(0.5)
    val ds = StreamDataset("c", proxy, proxy, proxy.map(_ => true))
    val b = Stratification.quantileStrata(proxy.toSeq, 3)
    // boundaries collapse to 0.5; >= sends everything right
    val strata = Stratification.split(ds, 0 until 100, b)
    assert(strata.map(_.size).sum == 100)
    assert(strata.last.size == 100)
  }
}
