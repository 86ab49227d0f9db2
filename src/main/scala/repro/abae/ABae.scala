package repro.abae

import repro.core._
import repro.sampling.Reservoir
import repro.util.Stats

/** ABae [Kang et al., PVLDB 2021] — the batch-setting comparator (§5.1).
  *
  * ABae observes the proxy-score distribution over the *entire* dataset
  * before sampling (the advantage the paper grants it):
  *
  *   1. stratify the whole dataset into K equal-count strata by proxy
  *      quantiles;
  *   2. pilot stage — spend `pilotFraction` of the total budget NT,
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
final class ABae(
    k: Int = 3,
    pilotFraction: Double = 0.15,
) extends StreamAlgorithm {
  require(k >= 1, s"need at least one stratum, got $k")
  require(pilotFraction > 0 && pilotFraction < 1,
    s"pilot fraction must be in (0,1), got $pilotFraction")
  override def name: String = "abae"

  override def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult = {
    val segs = ds.segments(query.segmentLength)
    val totalBudget = math.min(ds.length, query.budgetPerSegment * segs.size)
    // Batch algorithm: the budget is global, not per-segment.
    val oracle = new OracleModel(ds, query.segmentLength, None)

    val (idx, proxy) = ds.keys(0 until ds.length)
    val boundaries = Stats.quantileBoundaries(proxy, k)
    val strataIdxs = Stratification.split(idx, proxy, boundaries)

    def observe(idxs: Seq[Long]): Vector[(Long, Double, Boolean)] =
      idxs.iterator.map { i =>
        val (f, o) = oracle.invoke(i.toInt)
        (i, f, if (query.usePredicate) o else true)
      }.toVector

    // Stage 1: pilot, uniform per stratum.
    val pilotBudget = math.max(k, math.round(totalBudget * pilotFraction).toInt)
    val pilotPer = Stats.largestRemainder(Array.fill(k)(1.0), pilotBudget)
    val pilotSamples = (0 until k).map { s =>
      observe(Reservoir.bottomN(strataIdxs(s), pilotPer(s), trialSeed, tag = ABae.PilotTag))
    }

    // Stage 2: allocate the rest by the estimated optimal allocation.
    val pilotStats = (0 until k).map { s =>
      StratumStats.fromSamples(strataIdxs(s).size.toLong,
        pilotSamples(s).map { case (_, f, o) => (f, o) })
    }
    val alloc = Allocation.optimal(
      strataIdxs.map(_.size.toLong),
      pilotStats.map(_.pHat).toArray,
      pilotStats.map(_.stdHat).toArray)
    val stage2Counts = Stats.largestRemainder(alloc, totalBudget - pilotSamples.map(_.size).sum)
    val stage2Samples = (0 until k).map { s =>
      val already = pilotSamples(s).map(_._1).toSet
      val remaining = strataIdxs(s).filterNot(already)
      observe(Reservoir.bottomN(remaining, stage2Counts(s), trialSeed, tag = ABae.Stage2Tag))
    }

    // Sample reuse: pool pilot and stage-2 samples per stratum.
    val pooled = (0 until k).map(s => pilotSamples(s) ++ stage2Samples(s))
    val finalCells = (0 until k).map { s =>
      StratumStats.fromSamples(strataIdxs(s).size.toLong,
        pooled(s).map { case (_, f, o) => (f, o) })
    }

    // Per-segment estimates "by selecting the subset of ABae's oracle
    // samples within each segment" (paper §5.2). The paper does not pin
    // down the weights; we use per-segment ŵ_tk ∝ |D_tk|·p̂_tk (ABae sees
    // every proxy score, so |D_tk| is available), the strongest reading.
    val sizeDtk = Array.ofDim[Long](segs.size, k)
    for (s <- 0 until k; i <- strataIdxs(s)) sizeDtk(i.toInt / query.segmentLength)(s) += 1
    val perSegment = segs.zipWithIndex.map { case (seg, t) =>
      val cells = (0 until k).map { s =>
        val inSeg = pooled(s).filter { case (i, _, _) => seg.contains(i.toInt) }
        StratumStats.fromSamples(sizeDtk(t)(s), inSeg.map { case (_, f, o) => (f, o) })
      }
      Estimator.segmentEstimate(cells, query.agg)
    }.toArray

    RunResult(perSegment, Estimator.estimate(finalCells, query.agg), oracle.totalCalls)
  }
}

object ABae {
  val PilotTag: Long = 0xABAE_001L
  val Stage2Tag: Long = 0xABAE_002L
}
