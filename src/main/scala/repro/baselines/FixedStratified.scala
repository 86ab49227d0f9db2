package repro.baselines

import repro.core._
import repro.sampling.Reservoir
import repro.util.Stats

/** Stratified-sampling streaming baseline with fixed strata and fixed
  * allocations (paper §5.1).
  *
  * Strata are fixed proxy-score intervals `[0, ⅓), [⅓, ⅔), [⅔, 1]`
  * (generalized to K equal-width intervals); every segment × stratum gets
  * a fixed budget of N/K reservoir samples; the per-segment estimate is
  * the `ŵ_tk`-weighted average of per-stratum sample means, with
  * `ŵ_tk = |D_tk|·p̂_tk / Σ_j |D_tj|·p̂_tj` (paper equations 11–12) —
  * i.e. exactly [[Estimator.estimate]].
  */
final class FixedStratified(k: Int = 3) extends StreamAlgorithm {
  require(k >= 1, s"need at least one stratum, got $k")

  /** Interior boundaries of K equal-width strata on the proxy range [0,1]. */
  private val boundaries: Array[Double] = Array.tabulate(k - 1)(j => (j + 1).toDouble / k)

  /** The plan: each segment's strata and their capped counts. Proxies
    * outside [0, 1] have no fixed stratum and are rejected.
    */
  override def prepare(ds: StreamDataset, query: QueryConfig): Long => RunResult = {
    val bad = ds.proxy.indexWhere(p => p < 0 || p > 1)
    require(bad < 0, s"fixed strata need proxies in [0, 1]: proxy ${ds.proxy(bad)} at idx $bad")
    val perStratum = Stats.largestRemainder(Array.fill(k)(1.0), query.budgetPerSegment)
    val plans = ds.segments(query.segmentLength).map { seg =>
      val (idx, proxy) = ds.keys(seg)
      val strata = Stratification.split(idx, proxy, boundaries)
      // Fixed equal-width strata can be sparsely populated; cap at the
      // population and spill the surplus so the budget is not wasted.
      (strata, Allocation.capToSizes(perStratum, strata.map(_.length.toLong)))
    }

    val statistic = ds.statistic
    val predicate = ds.predicate

    trialSeed => {
      val oracle = new OracleModel(statistic, predicate, query.segmentLength, Some(query.budgetPerSegment))
      val cellsPerSegment = plans.zipWithIndex.map { case ((strata, counts), t) =>
        (0 until k).map { s =>
          val sampled = Reservoir.bottomN(strata(s), counts(s), trialSeed, FixedStratified.SampleTag + t)
          oracle.cell(strata(s).length.toLong, sampled, query.usePredicate)
        }
      }

      val perSegment = cellsPerSegment.map(cs => Estimator.segmentEstimate(cs, query.agg)).toArray
      RunResult(perSegment, Estimator.estimate(cellsPerSegment.flatten, query.agg), oracle.totalCalls)
    }
  }
}

object FixedStratified {
  val SampleTag: Long = 0xF1ED57A7L
}
