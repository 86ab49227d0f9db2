package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.sampling.Reservoir
import repro.util.Rng
import scala.collection.immutable.ArraySeq

/** The InQuest segment step on Spark (DESIGN.md §2).
  *
  * One instance processes a stream one tumbling segment (micro-batch) at
  * a time, keeping only the small driver-side state InQuest needs between
  * segments: the strata-boundary history, the allocation history and the
  * per-cell sufficient statistics. Every segment, the pilot included, is
  * exactly two Spark actions:
  *
  *   1. collect the segment's `(idx, proxy)` keys to the driver (16 B per
  *      record): the cheap proxy is read for every record;
  *   2. read `statistic`/`predicate` for the sampled `idx`s only (an
  *      `isin` filter): the metered oracle invocation, whose row count is
  *      asserted against the `ORACLE LIMIT`.
  *
  * Between the two, the driver runs the functions the local engine calls:
  * proxy-quantile strata, stratum split, allocation and the
  * `Reservoir.bottomN` draw, so both engines pick identical records. Each
  * cell sums its observations in sampling order, ascending
  * `(Rng.uniform(trialSeed, idx, tag), idx)`, where the local engine sums
  * in `idx` order; on non-integer statistics the two engines may
  * therefore differ in the last bits.
  *
  * Equivalence with the record-at-a-time [[repro.core.InQuest]] engine is
  * asserted in `SparkInQuestSpec`.
  */
final class SparkInQuestProcessor(
    params: InQuestParams,
    query: QueryConfig,
    trialSeed: Long,
) {

  private val (n1, n2) = Allocation.splitBudget(query.budgetPerSegment, params.defensiveFraction)
  private val strataHistory = Vector.newBuilder[Array[Double]]
  private val allocHistory = Vector.newBuilder[Array[Double]]
  private val cells = Vector.newBuilder[Seq[StratumStats]]
  private val estimates = Vector.newBuilder[Double]
  private var segmentsSeen = 0
  private var calls = 0L

  /** Action 1: every record's `(idx, proxy)`. Non-finite proxies are
    * rejected, naming the smallest bad `idx`.
    */
  private def collectKeys(segDf: DataFrame): (ArraySeq[Long], ArraySeq[Double]) = {
    val rows = segDf.select(col("idx"), col("proxy")).collect()
    val idx = ArraySeq.unsafeWrapArray(rows.map(_.getLong(0)))
    val proxy = ArraySeq.unsafeWrapArray(rows.map(_.getDouble(1)))
    require(proxy.forall(java.lang.Double.isFinite), {
      val i = proxy.indices.filterNot(j => java.lang.Double.isFinite(proxy(j))).minBy(idx)
      s"non-finite proxy ${proxy(i)} at idx ${idx(i)}"
    })
    (idx, proxy)
  }

  /** Action 2: the oracle's `(statistic, predicate)` for the sampled
    * records only.
    */
  private def invokeOracle(segDf: DataFrame, sampled: Seq[Long]): Map[Long, (Double, Boolean)] = {
    val cols = col("idx") +: col("statistic") +: (if (query.usePredicate) Seq(col("predicate")) else Nil)
    segDf.filter(col("idx").isInCollection(sampled)).select(cols: _*).collect()
      .map(r => r.getLong(0) -> (r.getDouble(1), !query.usePredicate || r.getBoolean(2)))
      .toMap
  }

  /** Record indices per stratum, as [[Stratification.split]] does for the
    * local engine.
    */
  private def split(idx: Seq[Long], proxy: Seq[Double], boundaries: Array[Double]): Array[Vector[Long]] = {
    val out = Array.fill(boundaries.length + 1)(Vector.newBuilder[Long])
    idx.indices.foreach(i => out(Stratification.assign(proxy(i), boundaries)) += idx(i))
    out.map(_.result())
  }

  /** One cell from its sampled records, summed in sampling order. */
  private def cell(sizeD: Long, sampled: Seq[Long], tag: Long,
                   obs: Map[Long, (Double, Boolean)]): StratumStats =
    StratumStats.fromSamples(sizeD,
      sampled.sortBy(i => (Rng.uniform(trialSeed, i, tag), i)).map { i =>
        obs.getOrElse(i, throw new IllegalStateException(s"no oracle row for sampled idx $i"))
      })

  /** Process the next tumbling segment; `segDf` must hold exactly that
    * segment's records. Returns the segment's cells, or `None` (and no
    * change of state) when `segDf` holds no records.
    */
  def processSegment(segDf: DataFrame): Option[Seq[StratumStats]] = {
    val t = segmentsSeen
    val (idx, proxy) = collectKeys(segDf)
    if (idx.isEmpty) return None
    val ownStrata = Stratification.quantileStrata(proxy, params.k)

    val (segCells, allocCells) =
      if (t == 0) {
        // Pilot: N uniform samples over the whole segment, one stratum.
        // They seed the allocation history bucketed by the segment's own
        // strata S_1 (DESIGN.md §6 "Pilot segment").
        val tag = InQuest.SampleTag
        val pilot = Reservoir.bottomN(idx, math.min(query.budgetPerSegment, idx.length), trialSeed, tag)
        val obs = invokeOracle(segDf, pilot)
        val pilotSet = pilot.toSet
        val seeded = split(idx, proxy, ownStrata).map(s => cell(s.size, s.filter(pilotSet), tag, obs))
        (Seq(cell(idx.length, pilot, tag, obs)), seeded.toSeq)
      } else {
        val tag = InQuest.SampleTag + t + 1
        val boundaries = Stratification.smooth(strataHistory.result(), params.alpha)
        val aHat = Allocation.smooth(allocHistory.result(), params.alpha)
        val byStratum = split(idx, proxy, boundaries)
        val counts = Allocation.capToSizes(
          Allocation.sampleCounts(aHat, n1, n2), byStratum.map(_.size.toLong))
        val sampled = byStratum.indices.map(k => Reservoir.bottomN(byStratum(k), counts(k), trialSeed, tag))
        val obs = invokeOracle(segDf, sampled.flatten)
        val segCells = byStratum.indices.map(k => cell(byStratum(k).size, sampled(k), tag, obs))
        (segCells, segCells)
      }

    val segCalls = segCells.map(_.nSampled.toLong).sum
    require(segCalls <= query.budgetPerSegment,
      s"oracle budget exceeded in segment $t: $segCalls > ${query.budgetPerSegment}")
    strataHistory += ownStrata
    allocHistory += Allocation.rawAllocation(allocCells)
    calls += segCalls
    cells += segCells
    estimates += Estimator.segmentEstimate(segCells, query.agg)
    segmentsSeen += 1
    Some(segCells)
  }

  def result: RunResult = {
    val all = cells.result()
    RunResult(estimates.result().toArray, Estimator.cumulativeEstimate(all, query.agg), calls)
  }
}

/** Batch driver: split a full stream DataFrame into its tumbling segments
  * and run the processor over each (the Structured Streaming driver in
  * [[StreamingInQuest]] feeds the same processor from `foreachBatch`).
  */
object SparkInQuest {
  def run(
      df: DataFrame,
      query: QueryConfig,
      trialSeed: Long,
      params: InQuestParams = InQuestParams(),
  ): RunResult = {
    val proc = new SparkInQuestProcessor(params, query, trialSeed)
    val maxIdx = df.agg(max(col("idx"))).head().getLong(0)
    var start = 0L
    while (start <= maxIdx) {
      val end = start + query.segmentLength
      proc.processSegment(df.filter(col("idx") >= start && col("idx") < end))
      start = end
    }
    proc.result
  }
}
