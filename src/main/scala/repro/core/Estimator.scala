package repro.core

/** GetPrediction (Algorithm 2): combine per-cell sample means into segment
  * and full-query estimates, weighting each cell by `p̂_tk · |D_tk|` — the
  * estimated count of predicate-matching records it represents.
  */
object Estimator {

  /** GetPrediction's state over the cells added so far: the two sums
    * Algorithm 2 reads, `Σ μ̂_tk · p̂_tk|D_tk|` and `Σ p̂_tk|D_tk|`, summed
    * in the order the cells are added. Each sum starts from its first
    * term, as `Seq.sum` does on a sized collection, so a lone −0.0 keeps
    * its sign; adding a cell costs O(1) however many came before.
    * Immutable: `add` returns the next state.
    */
  final class Prediction private (isEmpty: Boolean, weightedMeans: Double, weights: Double) {
    /** The state with `c` added as the newest cell. */
    def add(c: StratumStats): Prediction = {
      val w = c.pHat * c.sizeD
      if (isEmpty) new Prediction(false, c.muHat * w, w)
      else new Prediction(false, weightedMeans + c.muHat * w, weights + w)
    }

    /** `Σ μ̂·p̂|D| / Σ p̂|D|` for AVG (0 when the denominator is 0), the
      * unnormalized sum for SUM, and `Σ p̂|D|` for COUNT.
      */
    def value(agg: AggFunc): Double = agg match {
      case AggFunc.Avg   => if (weights <= 0) 0.0 else weightedMeans / weights
      case AggFunc.Sum   => weightedMeans
      case AggFunc.Count => weights
    }
  }

  /** The state over no cells: every estimate is 0. */
  object Prediction { val empty: Prediction = new Prediction(true, 0.0, 0.0) }

  /** Estimate over an arbitrary collection of cells: the [[Prediction]]
    * over `cells`, in order.
    */
  def estimate(cells: Seq[StratumStats], agg: AggFunc): Double =
    cells.foldLeft(Prediction.empty)(_ add _).value(agg)

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
    val prediction = cells.foldLeft(Prediction.empty)(_ add _)
    val (mu, den) = (prediction.value(AggFunc.Avg), prediction.value(AggFunc.Count))
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
