package repro.core

import repro.util.Stats

/** GetAlloc (Algorithm 2): estimate the optimal dynamic allocation from the
  * previous segment's samples, smooth it over history, and add the
  * defensive floor.
  */
object Allocation {

  /** The previous segment's raw optimal-allocation estimate
    * `a_{t−1,k} = ŵ_{t−1,k}·σ̂_{t−1,k} / Σ_j ŵ_{t−1,j}·σ̂_{t−1,j}` with
    * `ŵ = √p̂ · |D_{t−1,k}|/|D_{t−1}|` (Algorithm 2 lines 7–13): the
    * [[optimal]] allocation at the cells' p̂ and σ̂.
    */
  def rawAllocation(stats: Seq[StratumStats]): Array[Double] = {
    require(stats.nonEmpty, "rawAllocation of empty stats")
    optimal(stats.map(_.sizeD).toArray, stats.map(_.pHat).toArray, stats.map(_.stdHat).toArray)
  }

  /** `â_t = EWMA({a_1 … a_{t−1}}, α)`, [[normalized]]: the state the
    * session keeps, folded over a whole history.
    */
  def smooth(history: Seq[Array[Double]], alpha: Double): Array[Double] = {
    require(history.nonEmpty, "smooth of an empty history")
    normalized(history.foldLeft(Stats.Ewma(alpha, history.head.length))(_ add _).value)
  }

  /** `a / Σ a`, or the uniform 1/K when `Σ a ≤ 0`. An EWMA of simplex
    * vectors stays on the simplex; dividing by the sum guards rounding.
    */
  def normalized(a: Array[Double]): Array[Double] = {
    val s = a.sum
    if (s <= 0) Array.fill(a.length)(1.0 / a.length) else a.map(_ / s)
  }

  /** Final integer per-stratum sample counts for a segment with budget
    * `n = n1 + n2`: `n1/K` defensive samples per stratum plus `n2·â_tk`
    * dynamic samples (Algorithm 2 line 16), rounded by largest remainder
    * so Σ_k counts = n exactly.
    */
  def sampleCounts(aHat: Array[Double], n1: Int, n2: Int): Array[Int] = {
    require(n1 >= 0 && n2 >= 0, s"budgets must be non-negative: n1=$n1 n2=$n2")
    val k = aHat.length
    val target = Array.tabulate(k)(i => n1.toDouble / k + n2 * aHat(i))
    Stats.largestRemainder(target, n1 + n2)
  }

  /** Cap per-stratum sample counts at the stratum populations and
    * redistribute the surplus to strata with remaining capacity
    * (proportionally to that capacity). Without this, an allocation that
    * exceeds a small stratum's size would silently waste oracle budget.
    * Terminates in ≤ K rounds (each round saturates a stratum or clears
    * the surplus).
    */
  def capToSizes(counts: Array[Int], sizes: Array[Long]): Array[Int] = {
    require(counts.length == sizes.length, "counts/sizes length mismatch")
    val out = counts.clone()
    var surplus = 0L
    for (k <- out.indices; if out(k) > sizes(k)) {
      surplus += out(k) - sizes(k)
      out(k) = sizes(k).toInt
    }
    while (surplus > 0) {
      val capacity = out.indices.map(k => math.max(0L, sizes(k) - out(k)))
      val free = capacity.sum
      if (free == 0) return out // total budget exceeds the population
      val give = math.min(surplus, free)
      val add = Stats.largestRemainder(capacity.map(_.toDouble).toArray, give.toInt)
      surplus = 0
      for (k <- out.indices) {
        val a = math.min(add(k).toLong, capacity(k))
        out(k) += a.toInt
        surplus += add(k) - a
      }
    }
    out
  }

  /** Split the user budget N into (defensive N1, dynamic N2) given the
    * defensive fraction (paper default N1 = 10 % of N).
    */
  def splitBudget(n: Int, defensiveFraction: Double): (Int, Int) = {
    require(defensiveFraction >= 0 && defensiveFraction <= 1,
      s"defensive fraction must be in [0,1], got $defensiveFraction")
    val n1 = math.round(n * defensiveFraction).toInt
    (n1, n - n1)
  }

  /** Closed-form optimal allocation a*_tk of Proposition 1:
    * `a*_tk ∝ |D_tk|·√p_tk·σ_tk` (dropping the −N1/(N2·K) defensive
    * correction, i.e. the N1 = 0 form).
    *
    * Degenerate guard (DESIGN.md §6): if every term is zero — e.g. no
    * predicate-matching samples anywhere, or all strata constant — fall
    * back to the uniform allocation 1/K rather than dividing by zero.
    */
  def optimal(sizeD: Array[Long], p: Array[Double], sigma: Array[Double]): Array[Double] = {
    normalized(Array.tabulate(sizeD.length)(k => sizeD(k) * math.sqrt(p(k)) * sigma(k)))
  }
}
