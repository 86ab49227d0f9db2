package repro.core

/** GetPrediction (Algorithm 2): combine per-cell sample means into segment
  * and full-query estimates, weighting each cell by `p̂_tk · |D_tk|` — the
  * estimated count of predicate-matching records it represents.
  */
object Estimator {

  /** Estimate over an arbitrary collection of cells:
    * `Σ μ̂_tk · p̂_tk|D_tk| / Σ p̂_tj|D_tj|` for AVG (0 when the denominator
    * is 0), the unnormalized sum for SUM, and `Σ p̂_tk|D_tk|` for COUNT.
    */
  def estimate(cells: Seq[StratumStats], agg: AggFunc): Double = {
    val weighted = cells.map(c => (c.muHat, c.pHat * c.sizeD))
    agg match {
      case AggFunc.Avg =>
        val den = weighted.map(_._2).sum
        if (den <= 0) 0.0 else weighted.map { case (m, w) => m * w }.sum / den
      case AggFunc.Sum   => weighted.map { case (m, w) => m * w }.sum
      case AggFunc.Count => weighted.map(_._2).sum
    }
  }

  /** Per-segment estimate μ̂_t (the quantity the RMSE metric scores). */
  def segmentEstimate(cells: Seq[StratumStats], agg: AggFunc): Double = estimate(cells, agg)

  /** Normal-approximation confidence interval for the AVG estimator
    * (paper §3.2: the bootstrap and "a standard subgaussian tail bound …
    * give similar results"; the CLT interval is the deterministic
    * equivalent). Variance of the stratified ratio estimator ≈
    * `Σ ŵ_k² σ̂_k² / n_k⁺` with ŵ_k the normalized `p̂_k|D_k|` weights;
    * cells with no positive samples contribute weight 0.
    */
  def confidenceInterval(cells: Seq[StratumStats], z: Double = 1.96): (Double, Double) = {
    require(z > 0, s"z must be positive, got $z")
    val mu = estimate(cells, AggFunc.Avg)
    val den = cells.map(c => c.pHat * c.sizeD).sum
    if (den <= 0) (mu, mu)
    else {
      val variance = cells.map { c =>
        val w = c.pHat * c.sizeD / den
        if (c.nPos == 0) 0.0 else w * w * c.varHat / c.nPos
      }.sum
      val half = z * math.sqrt(variance)
      (mu - half, mu + half)
    }
  }
}
