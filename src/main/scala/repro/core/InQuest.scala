package repro.core

import repro.sampling.Reservoir
import repro.util.Stats
import scala.collection.immutable.ArraySeq

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
  * the stream's [[InQuest.SegmentPlan]]s, built once by an
  * [[InQuest.Planner]], and per trial an [[InQuest.Session]] stepped over
  * them with the metered [[OracleModel]] as its oracle.
  */
final class InQuest(params: InQuestParams = InQuestParams()) extends StreamAlgorithm {
  /** [[prepare]], with the internals for the lesion study and theory
    * tests: each trial returns the [[InQuest.Step]] of every segment, as
    * `step` returned it, with the trial's [[RunResult]].
    */
  def prepareTraced(ds: StreamDataset, query: QueryConfig): Long => (IndexedSeq[InQuest.Step], RunResult) = {
    val planner = new InQuest.Planner(params, query.segmentLength)
    val plans = ds.segments(query.segmentLength).map { seg =>
      val (idx, proxy) = ds.keys(seg)
      planner.add(idx, proxy)(identity)
    }
    val statistic = ds.statistic
    val predicate = ds.predicate
    trialSeed => {
      val session = new InQuest.Session(params, query, trialSeed)
      val oracle = new OracleModel(statistic, predicate, query.segmentLength, Some(query.budgetPerSegment))
      // Each cell in ascending idx order, as `bottomN` returns it.
      val observe: InQuest.Oracle = (cells, _) =>
        cells.map { case (sizeD, idxs) => oracle.cell(sizeD, idxs, query.usePredicate) }
      val steps = plans.map(session.step(_, observe))
      (steps, session.result)
    }
  }

  override def prepare(ds: StreamDataset, query: QueryConfig): Long => RunResult =
    prepareTraced(ds, query).andThen(_._2)
}

object InQuest {
  /** Tag decorrelating sampling uniforms from data-generation uniforms. */
  val SampleTag: Long = 0x1A0_57AB1EL

  /** An engine's data plane: given every cell's |D| and sampled `idx`s
    * (ascending), and the cells' sampling tag, it invokes the oracle on
    * exactly those records and returns each cell's [[StratumStats]],
    * summed in the engine's order.
    */
  type Oracle = (Seq[(Long, Array[Long])], Long) => Seq[StratumStats]

  /** What one pass of the Algorithm 1 loop leaves behind for segment `t`.
    * For the pilot (`t` = 0): its own quantiles S_1, its single stratum,
    * and a_1 from its samples' shares in S_1's strata. For every later
    * segment: Ŝ_t, the K cells GetPrediction reads, and a_t, which the
    * next GetAlloc smooths. A segment's counts are `cells.map(_.nSampled)`.
    * [[Session.step]] returns it and keeps only what later steps read.
    */
  final case class Step(t: Int, boundaries: Array[Double], cells: Seq[StratumStats], rawAllocation: Array[Double])

  /** The trial-invariant half of segment `t`: its strata, which depend on
    * the proxies alone. `boundaries` are the segment's own quantiles S_1
    * for the pilot (`t` = 0) and the smoothed Ŝ_t after it; `strata(k)`
    * holds stratum k's record indices in ascending order.
    */
  final case class SegmentPlan(t: Int, boundaries: Array[Double], strata: Array[Array[Long]]) {
    def sizes: Array[Long] = strata.map(_.length.toLong)
  }

  /** The data-only half of the InQuest control plane: GetStrata and
    * SplitStream, fed the stream's segments in order, one [[SegmentPlan]]
    * per segment, L = `segmentLength` records each (the last may be
    * short). It holds the EWMA of the strata S_1 … S_t, K−1 numbers
    * however many segments it has seen. The local engine adds every
    * segment once per call and shares the plans across trials; the
    * Catalyst engine adds one segment per micro-batch.
    */
  final class Planner(params: InQuestParams, segmentLength: Int) {
    private var t = 0
    private var smoothed = Stats.Ewma(params.alpha, params.k - 1)

    /** Plan the next segment, given as parallel `(idx, proxy)` keys of its
      * records in any order, and hand the plan to `use`. The keys are
      * checked first: every proxy finite, no `idx` repeated and every
      * `idx` in segment t's window `[t·L, (t+1)·L)`, each failure naming
      * the smallest bad `idx`, so a record that would count twice in
      * |D_tk|, or a replayed, merged or skipped window, fails instead of
      * being planned as segment t. The segment's strata join the EWMA
      * only once `use` returns, so bad keys or a `use` that throws leave
      * the planner as it was.
      */
    def add[A](idx: Array[Long], proxy: Array[Double])(use: SegmentPlan => A): A = {
      require(idx.nonEmpty && idx.length == proxy.length,
        s"a segment needs parallel, non-empty keys: ${idx.length}/${proxy.length}")
      require(proxy.forall(java.lang.Double.isFinite), {
        val i = proxy.indices.filterNot(j => java.lang.Double.isFinite(proxy(j))).minBy(idx(_))
        s"non-finite proxy ${proxy(i)} at idx ${idx(i)}"
      })
      val sorted = idx.sorted
      val repeat = (1 until sorted.length).find(j => sorted(j) == sorted(j - 1))
      require(repeat.isEmpty, s"idx ${sorted(repeat.get)} appears more than once in the segment")
      val (from, until) = (t.toLong * segmentLength, (t + 1).toLong * segmentLength)
      require(sorted.head >= from && sorted.last < until,
        s"idx ${sorted.find(i => i < from || i >= until).get} lies outside segment $t's window [$from, $until)")
      val ownStrata = Stratification.quantileStrata(ArraySeq.unsafeWrapArray(proxy), params.k)
      // Ŝ_t is a convex combination of sorted vectors, so it stays sorted.
      val b = if (t == 0) ownStrata else smoothed.value
      val strata = Stratification.split(idx, proxy, b)
      strata.foreach(java.util.Arrays.sort(_))
      val used = use(SegmentPlan(t, b, strata))
      smoothed = smoothed.add(ownStrata)
      t += 1
      used
    }
  }

  /** The per-trial half of the InQuest control plane, shared by the local
    * and the Catalyst engine, which differ only in how they read a
    * segment's keys and invoke the oracle. It steps over the
    * [[SegmentPlan]]s of one [[Planner]], in order.
    *
    * Segment 1 is the pilot: N uniform samples, contributed to the estimate
    * as a single stratum; its samples, bucketed by segment 1's own proxy
    * quantiles, seed the allocation EWMA (DESIGN.md §6, "Pilot
    * segment"). Every later segment t:
    *
    *   1. GetStrata and SplitStream — the plan's strata under Ŝ_t, the
    *      quantile boundaries of the earlier segments' proxies smoothed by
    *      the history EWMA;
    *   2. GetAlloc — raw optimal allocation from segment t−1's per-stratum
    *      samples, smoothed by the history EWMA, plus the N1/K defensive
    *      floor, capped at the stratum sizes;
    *   3. reservoir-draw the per-stratum budgets and invoke the oracle on
    *      exactly the sampled records;
    *   4. GetPrediction — per-segment and cumulative estimates.
    *
    * The sample is a pure function of `trialSeed` and the record indices
    * (see [[repro.sampling.Reservoir.bottomN]]). The session keeps what
    * the next segment and the answer read, not the steps: a segment
    * counter, â's EWMA, the running GetPrediction state, the oracle calls
    * and one estimate per segment, so a step costs the same at every t.
    * Its state is several fields, so it takes one caller at a time.
    */
  final class Session(params: InQuestParams, query: QueryConfig, trialSeed: Long) {
    private val n = query.budgetPerSegment
    private val (n1, n2) = Allocation.splitBudget(n, params.defensiveFraction)
    // â's EWMA over the raw allocations a_1 … a_{t−1} of the steps so far.
    private var allocation = Stats.Ewma(params.alpha, params.k)
    // GetPrediction over every cell of the steps so far.
    private var prediction = Estimator.Prediction.empty
    private var oracleCalls = 0L
    // μ̂_t of each step so far, one per segment.
    private val perSegment = new scala.jdk.DoubleAccumulator

    /** Process the next segment from its plan; `oracle` is called once.
      * Returns the segment's [[Step]]. The session's state changes only
      * once the step is complete, so a step that throws changes nothing.
      */
    def step(plan: SegmentPlan, oracle: Oracle): Step = {
      val t = perSegment.length
      require(plan.t == t, s"plan of segment ${plan.t} given for segment $t")
      val sizes = plan.sizes
      val (segCells, allocCells) =
        if (t == 0) {
          // Pilot: N uniform samples over the whole segment, one stratum.
          // Its shares in the segment's own strata S_1 seed a_1.
          val sample = Reservoir.bottomNOfUnion(plan.strata, n, trialSeed, SampleTag)
          val obs = oracle((sizes.sum, sample) +: sizes.indices.map(k =>
            (sizes(k), sample.filter(java.util.Arrays.binarySearch(plan.strata(k), _) >= 0))), SampleTag)
          (obs.take(1), obs.tail)
        } else {
          val aHat = Allocation.normalized(allocation.value)
          val c = Allocation.capToSizes(Allocation.sampleCounts(aHat, n1, n2), sizes)
          val tag = SampleTag + t + 1
          val obs = oracle(sizes.indices.map(k =>
            (sizes(k), Reservoir.bottomN(plan.strata(k), c(k), trialSeed, tag))), tag)
          (obs, obs)
        }

      val segCalls = segCells.map(_.nSampled.toLong).sum
      require(segCalls <= n, s"oracle budget exceeded in segment $t: $segCalls > $n")
      val record = Step(t, plan.boundaries, segCells, Allocation.rawAllocation(allocCells))
      allocation = allocation.add(record.rawAllocation)
      prediction = segCells.foldLeft(prediction)(_ add _)
      oracleCalls += segCalls
      perSegment.addOne(Estimator.estimate(segCells, query.agg))
      record
    }

    /** The cumulative estimate over every segment stepped so far, in O(1). */
    def estimate: Double = prediction.value(query.agg)

    def result: RunResult = RunResult(perSegment.toArray, estimate, oracleCalls)
  }
}
