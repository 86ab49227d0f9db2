package repro.abae

import repro.core._
import repro.sampling.Reservoir
import repro.util.Stats
import scala.collection.immutable.ArraySeq

/** ABae [Kang et al., PVLDB 2021] — the batch-setting comparator (§5.1).
  *
  * ABae observes the proxy-score distribution over the *entire* dataset
  * before sampling (the advantage the paper grants it):
  *
  *   1. stratify the whole dataset into K equal-count strata by proxy
  *      quantiles;
  *   2. pilot stage — spend 15 % of the total budget NT,
  *      uniformly per stratum, to estimate p̂_k and σ̂_k;
  *   3. allocate the remaining budget ∝ |D_k|·√p̂_k·σ̂_k (the same optimal
  *      form as InQuest's Proposition 1);
  *   4. with sample reuse, the final estimator pools pilot + stage-2
  *      samples per stratum, weighted by p̂_k·|D_k|.
  *
  * Per-segment estimates (needed for the median-segment-RMSE metric)
  * restrict ABae's samples to each segment, exactly as §5.2 describes
  * ("selecting the subset of ABae's oracle samples within each segment").
  */
final class ABae(k: Int = 3) extends StreamAlgorithm {
  require(k >= 1, s"need at least one stratum, got $k")

  /** The plan: the global strata, in ascending `idx` order, and
    * |D_tk| per segment. Each trial draws the two stages on them.
    */
  override def prepare(ds: StreamDataset, query: QueryConfig): Long => RunResult = {
    val nSegments = ds.segments(query.segmentLength).size
    val totalBudget = math.min(ds.length.toLong, query.totalBudget(nSegments)).toInt
    val (idx, proxy) = ds.keys(0 until ds.length)
    val b = Stratification.quantileStrata(ArraySeq.unsafeWrapArray(proxy), k)
    val strata = Stratification.split(idx, proxy, b)
    val sizes = strata.map(_.length.toLong)
    val sizeDtk = Array.ofDim[Long](nSegments, k)
    for (s <- 0 until k; i <- strata(s)) sizeDtk(i.toInt / query.segmentLength)(s) += 1
    // At least one pilot sample per stratum, but never more than N·T.
    val pilotBudget = math.min(totalBudget, math.max(k, math.round(totalBudget * ABae.PilotFraction).toInt))
    val pilotPer = Stats.largestRemainder(Array.fill(k)(1.0), pilotBudget)

    val statistic = ds.statistic
    val predicate = ds.predicate

    trialSeed => {
      // Batch algorithm: the budget is global, not per-segment.
      val oracle = new OracleModel(statistic, predicate, query.segmentLength)
      def cell(sizeD: Long, idxs: Array[Long]): StratumStats = oracle.cell(sizeD, idxs, query.usePredicate)

      // Stage 1: pilot, uniform per stratum.
      val pilot = (0 until k).map(s => Reservoir.bottomN(strata(s), pilotPer(s), trialSeed, ABae.PilotTag))

      // Stage 2: allocate the rest by the estimated optimal allocation.
      val pilotStats = (0 until k).map(s => cell(sizes(s), pilot(s)))
      val alloc = Allocation.optimal(sizes, pilotStats.map(_.pHat).toArray, pilotStats.map(_.stdHat).toArray)
      // Capped at each stratum's unsampled records, the surplus spilled to
      // the others: a budget of |D| samples every record.
      val stage2Counts = Allocation.capToSizes(
        Stats.largestRemainder(alloc, totalBudget - pilot.map(_.length).sum),
        Array.tabulate(k)(s => sizes(s) - pilot(s).length))
      val stage2 = (0 until k).map { s =>
        Reservoir.bottomNExcluding(strata(s), pilot(s), stage2Counts(s), trialSeed, ABae.Stage2Tag)
      }

      // Sample reuse: pool pilot and stage-2 samples per stratum.
      val pooled = (0 until k).map(s => pilot(s) ++ stage2(s))
      val finalCells = (0 until k).map(s => cell(sizes(s), pooled(s)))

      // Per-segment estimates "by selecting the subset of ABae's oracle
      // samples within each segment" (paper §5.2). The paper does not pin
      // down the weights; we use per-segment ŵ_tk ∝ |D_tk|·p̂_tk (ABae sees
      // every proxy score, so |D_tk| is available), the strongest reading.
      val perSegment = Array.tabulate(nSegments) { t =>
        Estimator.segmentEstimate((0 until k).map(s =>
          cell(sizeDtk(t)(s), pooled(s).filter(_ / query.segmentLength == t))), query.agg)
      }

      RunResult(perSegment, Estimator.estimate(finalCells, query.agg), oracle.totalCalls)
    }
  }
}

object ABae {
  /** Share of the total budget NT spent on the pilot stage. */
  val PilotFraction: Double = 0.15
  val PilotTag: Long = 0xABAE_001L
  val Stage2Tag: Long = 0xABAE_002L
}
