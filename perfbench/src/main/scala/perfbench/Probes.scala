package perfbench

import repro.baselines.UniformSampling
import repro.core._
import repro.sampling.Reservoir
import repro.util.Stats

/** Per-call probes of the `repro.core` and `repro.sampling` public
  * functions on one workload's own data: the Monte-Carlo query over the
  * workload's first stream, and its second segment where one is needed.
  */
object Probes {

  /** Median wall time in milliseconds of `body` over at least `minReps`
    * calls and at least `minNs` nanoseconds, after two unmeasured calls.
    */
  def medianMs(minReps: Int = 7, minNs: Long = 150L * 1000 * 1000, maxReps: Int = 20000)(body: => Any): Double = {
    body; body
    val xs = Vector.newBuilder[Double]
    var reps = 0
    var spent = 0L
    while (reps < maxReps && (reps < minReps || spent < minNs)) {
      val t0 = System.nanoTime()
      body
      val dt = System.nanoTime() - t0
      xs += dt / 1e6
      spent += dt
      reps += 1
    }
    Summary.median(xs.result())
  }

  def run(in: Inputs, seed: Long): Seq[(String, Double)] = {
    val ds = in.streams.head
    val q = in.mcQuery
    val params = InQuestParams()
    val k = params.k
    val segs = ds.segments(q.segmentLength)
    val seg = segs(math.min(1, segs.size - 1))
    val n = q.budgetPerSegment
    val (n1, n2) = Allocation.splitBudget(n, params.defensiveFraction)

    val boundaries = Stratification.quantileStrata(seg.map(ds.proxy), k)
    val strata = Stratification.split(ds, seg, boundaries)
    val sizes = strata.map(_.size.toLong)
    val history = Seq.fill(segs.size - 1)(Array.fill(k)(1.0 / k))
    val counts = Allocation.capToSizes(
      Allocation.sampleCounts(Allocation.smooth(history, params.alpha), n1, n2), sizes)
    val sampled = strata.indices.map(s => Reservoir.bottomN(strata(s), counts(s), seed, InQuest.SampleTag))
    val cells = strata.indices.map { s =>
      val oracle = new OracleModel(ds, q.segmentLength, Some(n))
      StratumStats.fromSamples(sizes(s), sampled(s).map { i =>
        val (f, o) = oracle.invoke(i.toInt)
        (f, if (q.usePredicate) o else true)
      })
    }
    val allocHistory = history :+ Allocation.rawAllocation(cells)
    val allSampled = sampled.flatten
    val perStratum = math.min(n / k, strata(0).size)
    val nt = math.min(ds.length, n * segs.size)

    Seq(
      "strata.quantile_ms" -> medianMs()(Stratification.quantileStrata(seg.map(ds.proxy), k)),
      "strata.split_ms" -> medianMs()(Stratification.split(ds, seg, boundaries)),
      "abae.global_strata_ms" -> medianMs() {
        val b = Stats.quantileBoundaries((0 until ds.length).map(ds.proxy), k)
        Stratification.split(ds, 0 until ds.length, b)
      },
      "reservoir.bottomn_ms" -> medianMs()(Reservoir.bottomN(strata(0), perStratum, seed, InQuest.SampleTag)),
      "reservoir.scan_ms" -> medianMs() {
        Reservoir.bottomN(0L until ds.length.toLong, nt, seed, UniformSampling.SampleTag)
      },
      "oracle.invoke_us" -> 1e3 * medianMs() {
        val oracle = new OracleModel(ds, q.segmentLength, Some(n))
        allSampled.foreach(i => oracle.invoke(i.toInt))
      } / math.max(1, allSampled.size),
      "alloc.ms" -> medianMs() {
        val aHat = Allocation.smooth(allocHistory, params.alpha)
        Allocation.capToSizes(Allocation.sampleCounts(aHat, n1, n2), sizes)
      },
      "estimator.ms" -> medianMs()(Estimator.segmentEstimate(cells, q.agg)),
    )
  }
}
