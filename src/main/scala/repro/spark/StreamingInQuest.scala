package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core._
import repro.util.Rng
import scala.collection.immutable.ArraySeq

/** One stream record as seen by the Catalyst engine. `statistic` and
  * `predicate` travel with the row but the engine only *reads* them on
  * sampled rows (the metered oracle invocation).
  */
final case class StreamRecord(idx: Long, proxy: Double, statistic: Double, predicate: Boolean)

/** InQuest on Spark Structured Streaming (DESIGN.md §2): a `foreachBatch`
  * sink where **one micro-batch is one tumbling segment**. It is the data
  * plane of an [[InQuest.Planner]] and an [[InQuest.Session]], which hold
  * the control plane both engines share; the planner takes one segment per
  * micro-batch. Every segment, the pilot included, is exactly two Spark
  * actions:
  *
  *   1. collect the segment's `(idx, proxy)` keys to the driver (16 B per
  *      record): the cheap proxy is read for every record;
  *   2. read `statistic`/`predicate` for the sampled `idx`s only (an
  *      `isin` filter): the metered oracle invocation.
  *
  * Between the two, the planner decides the strata and the session the
  * counts and the sample on the driver, so both engines pick identical
  * records. Each cell sums its observations in sampling order, ascending
  * `(Rng.uniform(trialSeed, idx, tag), idx)`, where the local engine sums
  * in `idx` order; on non-integer statistics the two engines may
  * therefore differ in the last bits. Equivalence with the
  * record-at-a-time [[repro.core.InQuest]] engine is asserted in
  * `SparkInQuestSpec` and `StreamingInQuestSpec`.
  *
  * The source must deliver whole segments per batch, in order: batch t
  * holds the records with `idx` in `[t·L, (t+1)·L)`, L the segment length,
  * as `StreamDataset.segments` defines segment t (the tests feed a
  * `MemoryStream` one segment at a time; a production deployment would use
  * a rate/Kafka source with a segment-sized trigger). Records inside a
  * batch may arrive in any order and partitioning, but each only once: the
  * planner fails a batch that repeats an `idx` or holds one outside its
  * window, or one with a non-finite proxy.
  */
final class StreamingInQuest(
    params: InQuestParams,
    query: QueryConfig,
    trialSeed: Long,
) {
  private val planner = new InQuest.Planner(params, query.segmentLength)
  private val session = new InQuest.Session(params, query, trialSeed)
  @volatile private var latest: Option[Double] = None

  /** Start the continuous query over a streaming Dataset of
    * [[StreamRecord]]s. Call `processAllAvailable()` (or await) on the
    * returned handle; estimates accumulate in this instance.
    */
  def start(stream: Dataset[StreamRecord]): StreamingQuery =
    stream.writeStream
      .outputMode("update")
      .foreachBatch { (batch: Dataset[StreamRecord], _: Long) =>
        processBatch(batch.toDF()): Unit
      }
      .start()

  /** Process the next tumbling segment; `segment` must hold exactly that
    * segment's records. Returns the segment's [[InQuest.Step]], or `None`
    * when `segment` holds no records; the engine keeps no steps, so a
    * caller that wants them keeps what this returns. A batch that holds
    * no records or fails changes no state, so it can be retried. Also
    * callable directly from a user-managed `foreachBatch` closure.
    */
  def processBatch(segment: DataFrame): Option[InQuest.Step] = synchronized {
    val (idx, proxy) = collectKeys(segment)
    if (idx.isEmpty) None
    else {
      val step = planner.add(idx, proxy)(session.step(_, invokeOracle(segment)))
      latest = Some(session.estimate)
      Some(step)
    }
  }

  /** The user-facing real-time query answer (paper Figure 3, step 6). */
  def latestEstimate: Option[Double] = latest

  /** The estimates so far. It waits for a batch in progress, so it never
    * reads a half-committed step.
    */
  def result: RunResult = synchronized(session.result)

  /** Action 1: every record's `(idx, proxy)`, which the planner checks. */
  private def collectKeys(segment: DataFrame): (Array[Long], Array[Double]) = {
    val rows = segment.select(col("idx"), col("proxy")).collect()
    (rows.map(_.getLong(0)), rows.map(_.getDouble(1)))
  }

  /** Action 2: the oracle's `(statistic, predicate)` for the sampled
    * records only, each cell folded in sampling order.
    */
  private def invokeOracle(segment: DataFrame)(cells: Seq[(Long, Array[Long])], tag: Long): Seq[StratumStats] = {
    val cols = col("idx") +: col("statistic") +: (if (query.usePredicate) Seq(col("predicate")) else Nil)
    val obs = segment.filter(col("idx").isInCollection(cells.flatMap(_._2).distinct)).select(cols: _*).collect()
      .map(r => r.getLong(0) -> (r.getDouble(1), !query.usePredicate || r.getBoolean(2)))
      .toMap
    cells.map { case (sizeD, idxs) =>
      val inSamplingOrder = ArraySeq.unsafeWrapArray(idxs).sortBy(i => (Rng.uniform(trialSeed, i, tag), i))
      StratumStats.fromSamples(sizeD, inSamplingOrder.map(i =>
        obs.getOrElse(i, throw new IllegalStateException(s"no oracle row for sampled idx $i"))))
    }
  }
}
