package repro.util

/** Small statistics toolkit shared by the core algorithm, the baselines and
  * the evaluation harness. Pure functions over in-memory sequences, and
  * the immutable [[Stats.Ewma]] state; both engines run them on the driver.
  */
object Stats {

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of empty sequence")
    xs.sum / xs.size
  }

  def rmse(errors: Seq[Double]): Double = {
    require(errors.nonEmpty, "rmse of empty sequence")
    math.sqrt(errors.map(e => e * e).sum / errors.size)
  }

  /** Median with the usual even-length average-of-middles convention. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of empty sequence")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** Geometric mean — the aggregation Tables 3 and 4 use across datasets.
    * A 0 among the inputs gives 0 (`log 0` is −∞), as an error of exactly 0
    * does when a budget covers the stream.
    */
  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "geomean of empty sequence")
    require(xs.forall(_ >= 0), s"geomean requires non-negative inputs, got $xs")
    math.exp(xs.map(math.log).sum / xs.size)
  }

  /** Pearson product-moment correlation (Table 2's `r`). */
  def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    require(xs.size == ys.size && xs.size > 1, "pearson needs two equal-length series")
    val mx = mean(xs); val my = mean(ys)
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    var i = 0
    while (i < xs.size) {
      val dx = xs(i) - mx; val dy = ys(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
      i += 1
    }
    if (sxx == 0 || syy == 0) 0.0 else sxy / math.sqrt(sxx * syy)
  }

  /** The history EWMA of DESIGN.md §6 over equal-length vectors
    * x_1 … x_m, oldest first: element-wise
    * `Σ_i (1−α)^{m−i} x_i / Σ_i (1−α)^{m−i}`. It is kept by its
    * recurrence `num ← (1−α)·num + x`, `den ← (1−α)·den + 1`, so adding a
    * vector costs O(dim) however long the history is; the result equals
    * the closed form up to rounding. α = 0 gives the unweighted mean of
    * the history (the assumption in Theorems 1–2); α = 1 makes the decay
    * 0, which leaves the newest vector (α = 0.8 is the paper's
    * "aggressive" default). Immutable: `add` returns the next state.
    */
  final class Ewma private (decay: Double, num: Array[Double], den: Double) {
    /** The state with `x` added as the newest vector. */
    def add(x: Array[Double]): Ewma = {
      require(x.length == num.length, s"an EWMA of ${num.length}-vectors was given a ${x.length}-vector")
      new Ewma(decay, Array.tabulate(x.length)(j => decay * num(j) + x(j)), decay * den + 1)
    }

    /** The EWMA of the vectors added so far. */
    def value: Array[Double] = {
      require(den > 0, "EWMA of an empty history")
      num.map(_ / den)
    }
  }

  object Ewma {
    /** The empty history of `dim`-vectors. */
    def apply(alpha: Double, dim: Int): Ewma = {
      require(alpha >= 0 && alpha <= 1, s"alpha must be in [0,1], got $alpha")
      new Ewma(1.0 - alpha, new Array[Double](dim), 0.0)
    }
  }

  /** Empirical quantile boundaries splitting `xs` into K equal-count strata.
    *
    * Returns the K−1 interior boundaries (quantiles at j/K, linear
    * interpolation between the order statistics of ranks `lo` and
    * `lo + 1`). With duplicates boundaries may coincide; stratum
    * assignment handles that by half-open intervals. Only those 2(K−1)
    * order statistics are selected, in ascending rank, each from where the
    * previous one stopped; nothing is fully sorted. Ranks follow
    * `Double.compare`, the order `xs.sorted` uses (−0.0 before 0.0), so
    * the boundaries are the bits the sorted definition gives. `xs` is
    * copied, not modified.
    */
  def quantileBoundaries(xs: Seq[Double], k: Int): Array[Double] = {
    require(k >= 1, s"need at least one stratum, got $k")
    require(xs.nonEmpty, "quantileBoundaries of empty sequence")
    val s = xs.toArray
    // s(r) holds the rank-r value for every rank selected so far, and
    // s(from until s.length) holds every rank from `from` up.
    var from = 0
    Array.tabulate(k - 1) { j =>
      val q = (j + 1).toDouble / k
      val pos = q * (s.length - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.length - 1)
      val frac = pos - lo
      if (lo >= from) { select(s, from, lo); from = lo + 1 }
      if (hi >= from) { selectMin(s, from); from = hi + 1 }
      s(lo) * (1 - frac) + s(hi) * frac
    }
  }

  /** Permute `a(from until a.length)` so that `a(r)` holds its rank-`r`
    * value under `Double.compare`, with no larger value before it and no
    * smaller one after it: quickselect with a three-way partition around a
    * median-of-three pivot, falling back to sorting the remaining range
    * after 2·log₂ n rounds so that no input is quadratic.
    */
  private def select(a: Array[Double], from: Int, r: Int): Unit = {
    def cmp(x: Double, y: Double): Int = java.lang.Double.compare(x, y)
    var lo = from
    var hi = a.length - 1
    var rounds = 2 * (32 - Integer.numberOfLeadingZeros(hi - lo + 1))
    while (lo < hi) {
      if (rounds == 0) { java.util.Arrays.sort(a, lo, hi + 1); lo = hi }
      else {
        rounds -= 1
        val x = a(lo); val y = a((lo + hi) >>> 1); val z = a(hi)
        val pivot =
          if (cmp(x, y) < 0) { if (cmp(y, z) < 0) y else if (cmp(x, z) < 0) z else x }
          else { if (cmp(x, z) < 0) x else if (cmp(y, z) < 0) z else y }
        // a(lo until lt) < pivot, a(lt until i) == pivot, a(gt + 1 to hi) > pivot.
        var lt = lo; var i = lo; var gt = hi
        while (i <= gt) {
          val c = cmp(a(i), pivot)
          if (c < 0) { swap(a, lt, i); lt += 1; i += 1 }
          else if (c > 0) { swap(a, i, gt); gt -= 1 }
          else i += 1
        }
        if (r < lt) hi = lt - 1
        else if (r > gt) lo = gt + 1
        else lo = hi
      }
    }
  }

  /** Move the least value of `a(from until a.length)` under
    * `Double.compare` to `a(from)`.
    */
  private def selectMin(a: Array[Double], from: Int): Unit = {
    var m = from
    var i = from + 1
    while (i < a.length) { if (java.lang.Double.compare(a(i), a(m)) < 0) m = i; i += 1 }
    swap(a, from, m)
  }

  private def swap(a: Array[Double], i: Int, j: Int): Unit = { val t = a(i); a(i) = a(j); a(j) = t }

  /** Stratum index of `x` given interior boundaries: half-open intervals
    * `(-inf, b0), [b0, b1), …, [b_{K-2}, +inf)`.
    */
  def stratumOf(x: Double, boundaries: Array[Double]): Int = {
    var k = 0
    while (k < boundaries.length && x >= boundaries(k)) k += 1
    k
  }

  /** Largest-remainder rounding of `total * weights` to integers summing to
    * `total`. Weights must be non-negative; zero-sum weight vectors share
    * uniformly. Ensures Σ_k n_k = total exactly (DESIGN.md §6 guard).
    */
  def largestRemainder(weights: Array[Double], total: Int): Array[Int] = {
    require(total >= 0, s"total must be >= 0, got $total")
    require(weights.nonEmpty && weights.forall(_ >= 0), "weights must be non-negative")
    val sum = weights.sum
    val w = if (sum <= 0) Array.fill(weights.length)(1.0 / weights.length)
            else weights.map(_ / sum)
    val raw = w.map(_ * total)
    val base = raw.map(_.toInt)
    var remaining = total - base.sum
    val order = raw.zipWithIndex.sortBy { case (r, i) => (-(r - r.toInt), i) }
    val out = base.clone()
    var i = 0
    while (remaining > 0) {
      out(order(i % order.length)._2) += 1
      remaining -= 1
      i += 1
    }
    out
  }
}
