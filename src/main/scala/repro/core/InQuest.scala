package repro.core

import repro.sampling.Reservoir
import scala.collection.mutable

/** InQuest hyperparameters (paper §3.2 "Setting parameters" defaults). */
final case class InQuestParams(
    k: Int = 3,
    alpha: Double = 0.8,
    defensiveFraction: Double = 0.1,
) {
  require(k >= 1, s"need at least one stratum, got $k")
  require(alpha >= 0 && alpha <= 1, s"alpha must be in [0,1], got $alpha")
  require(defensiveFraction >= 0 && defensiveFraction <= 1,
    s"defensive fraction must be in [0,1], got $defensiveFraction")
}

/** The InQuest algorithm (paper Algorithms 1–2), record-at-a-time engine:
  * an [[InQuest.Session]] stepped over the stream's segments, with the
  * metered [[OracleModel]] as its oracle.
  */
final class InQuest(params: InQuestParams = InQuestParams()) extends StreamAlgorithm {
  override def name: String = "inquest"

  /** Full run; also exposes internals for the lesion study and theory
    * tests via the returned [[InQuest.Trace]].
    */
  def runTraced(ds: StreamDataset, query: QueryConfig, trialSeed: Long): InQuest.Trace = {
    val session = new InQuest.Session(params, query, trialSeed)
    val oracle = new OracleModel(ds, query.segmentLength, Some(query.budgetPerSegment))
    // Each cell in ascending idx order, as `bottomN` returns it.
    val observe: InQuest.Oracle = (cells, _) => cells.map(_.map { i =>
      val (f, o) = oracle.invoke(i.toInt)
      (i, f, o)
    })
    ds.segments(query.segmentLength).foreach { seg =>
      val (idx, proxy) = ds.keys(seg)
      session.step(idx, proxy, observe)
    }
    session.trace
  }

  override def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult =
    runTraced(ds, query, trialSeed).result
}

object InQuest {
  /** Tag decorrelating sampling uniforms from data-generation uniforms. */
  val SampleTag: Long = 0x1A0_57AB1EL

  /** An engine's data plane: given every cell's sampled `idx`s (each
    * ascending) and the cells' sampling tag, it invokes the oracle on
    * exactly those records and returns each cell's `(idx, f(x), O(x))` in
    * the order the engine sums them.
    */
  type Oracle = (Seq[Seq[Long]], Long) => Seq[Seq[(Long, Double, Boolean)]]

  /** Run result plus internals for white-box tests and the lesion study. */
  final case class Trace(
      result: RunResult,
      cells: Seq[Seq[StratumStats]],
      boundariesPerSegment: Seq[Array[Double]],
      countsPerSegment: Seq[Array[Int]],
      rawAllocations: Seq[Array[Double]],
  )

  /** The InQuest control plane for one trial, shared by the local and the
    * Catalyst engine, which differ only in how they read a segment's keys
    * and invoke the oracle.
    *
    * Segment 1 is the pilot: N uniform samples, contributed to the estimate
    * as a single stratum; its samples, bucketed by segment 1's own proxy
    * quantiles, seed the allocation history (DESIGN.md §6, "Pilot
    * segment"). Every later segment t:
    *
    *   1. GetStrata — quantile boundaries of segment t−1's proxies, smoothed
    *      by the history EWMA;
    *   2. GetAlloc — raw optimal allocation from segment t−1's per-stratum
    *      samples, smoothed by the history EWMA, plus the N1/K defensive
    *      floor, capped at the stratum sizes;
    *   3. SplitStream + reservoir-draw the per-stratum budgets and invoke
    *      the oracle on exactly the sampled records;
    *   4. GetPrediction — per-segment and cumulative estimates.
    *
    * The sample is a pure function of `trialSeed` and the record indices
    * (see [[repro.sampling.Reservoir.bottomN]]).
    */
  final class Session(params: InQuestParams, query: QueryConfig, trialSeed: Long) {
    private val n = query.budgetPerSegment
    private val (n1, n2) = Allocation.splitBudget(n, params.defensiveFraction)
    private var strataHistory = Vector.empty[Array[Double]]
    private var allocHistory = Vector.empty[Array[Double]]
    private var cells = Vector.empty[Seq[StratumStats]]
    private var boundaries = Vector.empty[Array[Double]]
    private var counts = Vector.empty[Array[Int]]

    private def cell(sizeD: Long, obs: Seq[(Long, Double, Boolean)]): StratumStats =
      StratumStats.fromSamples(sizeD, obs.map { case (_, f, o) => (f, o || !query.usePredicate) })

    /** Process the next segment, given as parallel `(idx, proxy)` keys of
      * its records in any order; `oracle` is called once. Returns the
      * segment's cells.
      */
    def step(idx: IndexedSeq[Long], proxy: IndexedSeq[Double], oracle: Oracle): Seq[StratumStats] = {
      require(idx.nonEmpty && idx.length == proxy.length,
        s"a segment needs parallel, non-empty keys: ${idx.length}/${proxy.length}")
      val t = cells.size
      val ownStrata = Stratification.quantileStrata(proxy, params.k)
      val (segCells, allocCells, plan) =
        if (t == 0) {
          // Pilot: N uniform samples over the whole segment, one stratum.
          // Bucketed by the segment's own strata S_1, keeping the order
          // the data plane sums them in, they seed a_1.
          val sample = Reservoir.bottomN(idx, math.min(n, idx.length), trialSeed, SampleTag)
          val obs = oracle(Seq(sample), SampleTag).head
          val stratumOf = mutable.LongMap.from(sample.map(_ -> 0))
          val sizes = new Array[Long](params.k)
          idx.indices.foreach { i =>
            val k = Stratification.assign(proxy(i), ownStrata)
            sizes(k) += 1
            if (stratumOf.contains(idx(i))) stratumOf(idx(i)) = k
          }
          val seeded = sizes.indices.map(k => cell(sizes(k), obs.filter(o => stratumOf(o._1) == k)))
          (Seq(cell(idx.length, obs)), seeded, None)
        } else {
          val b = Stratification.smooth(strataHistory, params.alpha)
          val aHat = Allocation.smooth(allocHistory, params.alpha)
          val byStratum = Stratification.split(idx, proxy, b)
          val c = Allocation.capToSizes(
            Allocation.sampleCounts(aHat, n1, n2), byStratum.map(_.size.toLong))
          val tag = SampleTag + t + 1
          val obs = oracle(byStratum.indices.map(k => Reservoir.bottomN(byStratum(k), c(k), trialSeed, tag)), tag)
          val segCells = byStratum.indices.map(k => cell(byStratum(k).size, obs(k)))
          (segCells, segCells, Some((b, c)))
        }

      val segCalls = segCells.map(_.nSampled.toLong).sum
      require(segCalls <= n, s"oracle budget exceeded in segment $t: $segCalls > $n")
      plan.foreach { case (b, c) => boundaries :+= b; counts :+= c }
      strataHistory :+= ownStrata
      allocHistory :+= Allocation.rawAllocation(allocCells)
      cells :+= segCells
      segCells
    }

    def result: RunResult = RunResult(
      cells.map(Estimator.segmentEstimate(_, query.agg)).toArray,
      Estimator.cumulativeEstimate(cells, query.agg),
      cells.flatten.map(_.nSampled.toLong).sum)

    def trace: Trace = Trace(result, cells, boundaries, counts, allocHistory)
  }
}
