package repro.util

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Checks.forAllSampled
import scala.collection.immutable.ArraySeq

class StatsSpec extends AnyFunSuite {

  private val eps = 1e-12
  private val smallVec = Gen.nonEmptyListOf(Gen.chooseNum(-100.0, 100.0)).map(_.take(50))

  test("mean of known sequence") { assert(Stats.mean(Seq(1, 2, 3, 4.0)) == 2.5) }
  test("mean of empty sequence is rejected") {
    assertThrows[IllegalArgumentException](Stats.mean(Seq.empty))
  }

  test("rmse of known errors") {
    assert(math.abs(Stats.rmse(Seq(3.0, -4.0)) - math.sqrt(12.5)) < eps)
  }
  test("rmse of zeros is zero") { assert(Stats.rmse(Seq(0.0, 0.0)) == 0.0) }

  test("median of odd-length sequence") { assert(Stats.median(Seq(5, 1, 3.0)) == 3.0) }
  test("median of even-length sequence averages the middles") {
    assert(Stats.median(Seq(4, 1, 3, 2.0)) == 2.5)
  }
  test("median is invariant to order") {
    forAllSampled(smallVec, n = 100) { xs =>
      assert(Stats.median(xs) == Stats.median(xs.reverse))
    }
  }

  test("geomean of known values") {
    assert(math.abs(Stats.geomean(Seq(1.0, 4.0)) - 2.0) < eps)
  }
  test("geomean rejects negative and NaN values") {
    assertThrows[IllegalArgumentException](Stats.geomean(Seq(1.0, -1.0)))
    assertThrows[IllegalArgumentException](Stats.geomean(Seq(1.0, -0.5, 0.0)))
    assertThrows[IllegalArgumentException](Stats.geomean(Seq(1.0, Double.NaN)))
  }
  test("geomean of inputs with a 0 is 0: an error of exactly 0") {
    assert(Stats.geomean(Seq(0.0)) == 0.0)
    assert(Stats.geomean(Seq(1.0, 0.0, 4.0)) == 0.0)
    assert(Stats.geomean(Seq.fill(6)(0.0)) == 0.0)
  }
  test("geomean is at most the arithmetic mean (AM-GM)") {
    forAllSampled(Gen.nonEmptyListOf(Gen.chooseNum(0.1, 50.0)).map(_.take(20)), n = 100) { xs =>
      assert(Stats.geomean(xs) <= Stats.mean(xs) + 1e-9)
    }
  }

  test("pearson of a perfectly linear relation is ±1") {
    val xs = (1 to 50).map(_.toDouble)
    assert(math.abs(Stats.pearson(xs, xs.map(x => 3 * x + 1)) - 1.0) < 1e-9)
    assert(math.abs(Stats.pearson(xs, xs.map(x => -2 * x)) + 1.0) < 1e-9)
  }
  test("pearson of independent hash streams is near 0") {
    val xs = (0 until 5000).map(i => Rng.uniform(1, i.toLong))
    val ys = (0 until 5000).map(i => Rng.uniform(2, i.toLong))
    assert(math.abs(Stats.pearson(xs, ys)) < 0.05)
  }
  test("pearson with a constant series is 0") {
    assert(Stats.pearson(Seq(1, 1, 1.0), Seq(1, 2, 3.0)) == 0.0)
  }
  test("pearson is bounded in [-1, 1]") {
    forAllSampled(Gen.listOfN(20, Gen.zip(Gen.chooseNum(-10.0, 10.0), Gen.chooseNum(-10.0, 10.0))), n = 100) { ps =>
      if (ps.size > 1) {
        val r = Stats.pearson(ps.map(_._1), ps.map(_._2))
        assert(r >= -1.0 - eps && r <= 1.0 + eps)
      }
    }
  }

  /** The EWMA state folded over `history`, oldest first. */
  private def ewmaVec(history: Seq[Array[Double]], alpha: Double): Array[Double] =
    history.foldLeft(Stats.Ewma(alpha, history.head.length))(_ add _).value

  private def ewma(history: Seq[Double], alpha: Double): Double = ewmaVec(history.map(Array(_)), alpha)(0)

  /** DESIGN.md §6's closed form, `Σ_i (1−α)^{m−i} x_i / Σ_i (1−α)^{m−i}`,
    * element-wise.
    */
  private def closedForm(history: Seq[Array[Double]], alpha: Double): Array[Double] = {
    val m = history.size
    val w = (1 to m).map(i => math.pow(1 - alpha, (m - i).toDouble))
    Array.tabulate(history.head.length)(j => history.indices.map(i => w(i) * history(i)(j)).sum / w.sum)
  }

  test("ewma with alpha=0 is the unweighted history mean (Theorems' assumption)") {
    assert(math.abs(ewma(Seq(1, 2, 3, 4.0), 0.0) - 2.5) < eps)
  }
  test("ewma with alpha=1 is the most recent value") {
    assert(ewma(Seq(1, 2, 3, 4.0), 1.0) == 4.0)
  }
  test("ewma of a singleton is that value for any alpha") {
    forAllSampled(Gen.chooseNum(0.0, 1.0), n = 50) { a =>
      assert(ewma(Seq(7.5), a) == 7.5)
    }
  }
  test("ewma with alpha=0.8 weights the newest 5x more than the previous") {
    // weights: (1-α)^1=0.2 for x1, (1-α)^0=1 for x2 → (0.2·0 + 1·1)/1.2
    assert(math.abs(ewma(Seq(0.0, 1.0), 0.8) - 1.0 / 1.2) < eps)
  }
  test("ewma stays within [min, max] of the history") {
    forAllSampled(Gen.zip(smallVec, Gen.chooseNum(0.0, 1.0)), n = 100) { case (xs, a) =>
      val e = ewma(xs, a)
      assert(e >= xs.min - 1e-9 && e <= xs.max + 1e-9)
    }
  }
  test("ewmaVec applies ewma element-wise") {
    val h = Seq(Array(0.0, 10.0), Array(1.0, 20.0))
    val e = ewmaVec(h, 0.0)
    assert(math.abs(e(0) - 0.5) < eps && math.abs(e(1) - 15.0) < eps)
  }
  test("ewmaVec rejects ragged histories") {
    assertThrows[IllegalArgumentException](
      ewmaVec(Seq(Array(1.0), Array(1.0, 2.0)), 0.5))
  }

  test("Ewma equals the closed form within 1e-12 relative on histories of up to 200 vectors") {
    // Entries in [0, 1), as proxy quantiles and allocations are: a sum of
    // non-negative terms has no cancellation, so its relative error stays
    // near m·2^-53 in both forms.
    val gen = Gen.zip(Gen.chooseNum(1, 200), Gen.chooseNum(1, 4), Gen.oneOf(0.0, 0.3, 0.8), Gen.chooseNum(0L, 1L << 40))
    forAllSampled(gen, n = 100) { case (m, dim, alpha, seed) =>
      val h = Seq.tabulate(m)(i => Array.tabulate(dim)(j => Rng.uniform(seed, (i * dim + j).toLong)))
      ewmaVec(h, alpha).zip(closedForm(h, alpha)).foreach { case (x, y) =>
        assert(math.abs(x - y) <= 1e-12 * math.max(math.abs(x), math.abs(y)), s"m=$m α=$alpha: $x vs $y")
      }
    }
  }
  test("Ewma is exact for one or two vectors") {
    val h = Seq(Array(0.1, -3.7, 2e-5), Array(0.9, 1.3, 7e3))
    for (alpha <- Seq(0.0, 0.3, 0.8, 1.0); m <- 1 to 2)
      assert(ewmaVec(h.take(m), alpha).toSeq == closedForm(h.take(m), alpha).toSeq, s"m=$m α=$alpha")
  }
  test("Ewma is the newest vector at alpha=1 and the mean at alpha=0") {
    val h = Seq(Array(1.0, -2.0), Array(0.5, 4.0), Array(2.25, 0.125))
    assert(ewmaVec(h, 1.0).toSeq == h.last.toSeq)
    assert(ewmaVec(h, 0.0).toSeq == Seq((1.0 + 0.5 + 2.25) / 3, (-2.0 + 4.0 + 0.125) / 3))
  }
  test("Ewma rejects a vector of another dimension and an empty history") {
    val e = intercept[IllegalArgumentException](Stats.Ewma(0.5, 2).add(Array(1.0, 2.0)).add(Array(1.0)))
    assert(e.getMessage.contains("2-vectors was given a 1-vector"), e.getMessage)
    assertThrows[IllegalArgumentException](Stats.Ewma(0.5, 2).value)
    assertThrows[IllegalArgumentException](Stats.Ewma(1.5, 2))
  }

  test("quantileBoundaries of 0..100 at K=4 are the quartiles") {
    val b = Stats.quantileBoundaries((0 to 100).map(_.toDouble), 4)
    assert(b.toSeq == Seq(25.0, 50.0, 75.0))
  }
  test("quantileBoundaries interpolates between ranks") {
    val b = Stats.quantileBoundaries(Seq(0.0, 1.0), 2)
    assert(b.toSeq == Seq(0.5))
  }
  test("quantileBoundaries with K=1 is empty") {
    assert(Stats.quantileBoundaries(Seq(1.0, 2.0), 1).isEmpty)
  }
  test("quantileBoundaries splits a large sample into roughly equal strata") {
    val xs = (0 until 9999).map(i => Rng.uniform(3, i.toLong))
    val b = Stats.quantileBoundaries(xs, 3)
    val counts = xs.groupBy(x => Stats.stratumOf(x, b)).view.mapValues(_.size).toMap
    (0 until 3).foreach { k =>
      assert(math.abs(counts(k) - 3333) <= 2, s"stratum $k count ${counts(k)}")
    }
  }
  test("quantileBoundaries are sorted") {
    forAllSampled(smallVec, n = 100) { xs =>
      val b = Stats.quantileBoundaries(xs, 3)
      assert(b.toSeq == b.toSeq.sorted)
    }
  }

  /** The quantile boundaries by definition: interpolated ranks of the
    * boxed sort, as raw bits.
    */
  private def sortedBoundaryBits(xs: Seq[Double], k: Int): Seq[Long] = {
    val s = xs.sorted.toArray
    Array.tabulate(k - 1) { j =>
      val pos = (j + 1).toDouble / k * (s.length - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) * (1 - (pos - lo)) + s(hi) * (pos - lo)
    }.map(java.lang.Double.doubleToRawLongBits).toSeq
  }

  private def boundaryBits(xs: Seq[Double], k: Int): Seq[Long] =
    Stats.quantileBoundaries(xs, k).map(java.lang.Double.doubleToRawLongBits).toSeq

  test("quantileBoundaries equals its definition over the boxed sort") {
    // Few distinct values, so duplicates are common; -0.0 and 0.0 both occur.
    val values = Gen.oneOf(-0.0, 0.0, 0.25, 1.0, -3.5, 1e-300, Double.MinValue, Double.MaxValue)
    val gen = Gen.zip(Gen.nonEmptyListOf(Gen.oneOf(values, Gen.chooseNum(-1.0, 1.0))), Gen.chooseNum(1, 6))
    forAllSampled(gen, n = 300) { case (xs, k) =>
      assert(boundaryBits(xs, k) == sortedBoundaryBits(xs, k), s"K=$k xs=$xs")
    }
  }

  test("quantileBoundaries selects the sorted definition's bits on 10^3 and 10^5 values") {
    Seq(1000, 100_000).foreach { n =>
      val uniform = Array.tabulate(n)(i => Rng.uniform(5, i.toLong))
      // Six values drawn at random: -0.0 and 0.0 each make up about a third.
      val duplicates = Array.tabulate(n)(i => Seq(-0.0, 0.0, 0.5, -0.0, 0.0, 1.0)((Rng.uniform(6, i.toLong) * 6).toInt))
      val inputs = Seq(
        "uniform" -> uniform,
        "duplicates" -> duplicates,
        "sorted" -> uniform.sorted,
        "reverse-sorted" -> uniform.sorted.reverse,
        "sorted duplicates" -> duplicates.sorted,
        "constant" -> Array.fill(n)(0.25),
      )
      for ((name, xs) <- inputs; k <- 1 to 6) {
        val seq = ArraySeq.unsafeWrapArray(xs)
        assert(boundaryBits(seq, k) == sortedBoundaryBits(seq, k), s"$name n=$n K=$k")
      }
    }
  }

  test("quantileBoundaries leaves a wrapped input array unmodified") {
    val xs = Array.tabulate(10_000)(i => Rng.uniform(7, i.toLong) - 0.5)
    val before = xs.clone()
    Stats.quantileBoundaries(ArraySeq.unsafeWrapArray(xs), 6)
    assert(java.util.Arrays.equals(xs, before))
  }

  test("stratumOf respects half-open boundaries") {
    val b = Array(1.0, 2.0)
    assert(Stats.stratumOf(0.5, b) == 0)
    assert(Stats.stratumOf(1.0, b) == 1) // boundary belongs to the right
    assert(Stats.stratumOf(1.5, b) == 1)
    assert(Stats.stratumOf(2.0, b) == 2)
    assert(Stats.stratumOf(99.0, b) == 2)
  }
  test("stratumOf with no boundaries is always 0") {
    assert(Stats.stratumOf(123.0, Array.empty) == 0)
  }

  test("largestRemainder sums to the total") {
    forAllSampled(
      Gen.zip(Gen.nonEmptyListOf(Gen.chooseNum(0.0, 10.0)).map(_.take(8)), Gen.chooseNum(0, 1000)),
      n = 200) { case (ws, total) =>
      assert(Stats.largestRemainder(ws.toArray, total).sum == total)
    }
  }
  test("largestRemainder of proportional weights is exact") {
    assert(Stats.largestRemainder(Array(1.0, 2.0, 1.0), 8).toSeq == Seq(2, 4, 2))
  }
  test("largestRemainder of zero weights splits uniformly") {
    assert(Stats.largestRemainder(Array(0.0, 0.0, 0.0), 9).toSeq == Seq(3, 3, 3))
  }
  test("largestRemainder never deviates more than 1 from the real share") {
    forAllSampled(
      Gen.zip(Gen.listOfN(5, Gen.chooseNum(0.01, 10.0)), Gen.chooseNum(1, 500)),
      n = 200) { case (ws, total) =>
      val out = Stats.largestRemainder(ws.toArray, total)
      val sum = ws.sum
      ws.indices.foreach { i =>
        assert(math.abs(out(i) - total * ws(i) / sum) < 1.0 + 1e-9)
      }
    }
  }
  test("largestRemainder rejects negative totals and weights") {
    assertThrows[IllegalArgumentException](Stats.largestRemainder(Array(1.0), -1))
    assertThrows[IllegalArgumentException](Stats.largestRemainder(Array(-1.0), 5))
  }
}
