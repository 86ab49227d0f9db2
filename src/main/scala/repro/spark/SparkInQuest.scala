package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import repro.util.Rng
import scala.collection.immutable.ArraySeq

/** The InQuest segment step on Spark (DESIGN.md §2): the data plane of an
  * [[InQuest.Session]], which holds the control plane both engines share.
  *
  * One instance processes a stream one tumbling segment (micro-batch) at
  * a time. Every segment, the pilot included, is exactly two Spark
  * actions:
  *
  *   1. collect the segment's `(idx, proxy)` keys to the driver (16 B per
  *      record): the cheap proxy is read for every record;
  *   2. read `statistic`/`predicate` for the sampled `idx`s only (an
  *      `isin` filter): the metered oracle invocation.
  *
  * Between the two, the session decides strata, counts and the sample on
  * the driver, so both engines pick identical records. Each cell sums its
  * observations in sampling order, ascending
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

  private val session = new InQuest.Session(params, query, trialSeed)

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
    * records only, each cell in sampling order.
    */
  private def invokeOracle(segDf: DataFrame)(cells: Seq[Seq[Long]], tag: Long): Seq[Seq[(Long, Double, Boolean)]] = {
    val cols = col("idx") +: col("statistic") +: (if (query.usePredicate) Seq(col("predicate")) else Nil)
    val obs = segDf.filter(col("idx").isInCollection(cells.flatten)).select(cols: _*).collect()
      .map(r => r.getLong(0) -> (r.getDouble(1), !query.usePredicate || r.getBoolean(2)))
      .toMap
    cells.map(_.sortBy(i => (Rng.uniform(trialSeed, i, tag), i)).map { i =>
      val (f, o) = obs.getOrElse(i, throw new IllegalStateException(s"no oracle row for sampled idx $i"))
      (i, f, o)
    })
  }

  /** Process the next tumbling segment; `segDf` must hold exactly that
    * segment's records. Returns the segment's cells, or `None` (and no
    * change of state) when `segDf` holds no records.
    */
  def processSegment(segDf: DataFrame): Option[Seq[StratumStats]] = {
    val (idx, proxy) = collectKeys(segDf)
    if (idx.isEmpty) None else Some(session.step(idx, proxy, invokeOracle(segDf)))
  }

  def result: RunResult = session.result

  def trace: InQuest.Trace = session.trace
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
