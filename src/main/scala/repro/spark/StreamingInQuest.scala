package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.{InQuestParams, QueryConfig, RunResult}

/** Structured Streaming driver for InQuest (the calibration hint's
  * prescribed mapping): a `foreachBatch` sink where **one micro-batch is
  * one tumbling segment**, delegating the segment step to
  * [[SparkInQuestProcessor]] — cheap proxy scores drive the sampling
  * decisions, the expensive oracle columns are read only on the selected
  * rows, and the running query estimate is updated per micro-batch.
  *
  * The source must deliver whole segments per batch (the integration test
  * feeds a `MemoryStream` one segment at a time; a production deployment
  * would use a rate/Kafka source with a segment-sized trigger). Records
  * inside a batch may arrive in any order and partitioning.
  */
final class StreamingInQuest(
    params: InQuestParams,
    query: QueryConfig,
    trialSeed: Long,
) {
  private val processor = new SparkInQuestProcessor(params, query, trialSeed)
  @volatile private var latest: Option[Double] = None

  /** Start the continuous query over a streaming Dataset of
    * [[StreamRecord]]s. Call `processAllAvailable()` (or await) on the
    * returned handle; estimates accumulate in this instance.
    */
  def start(stream: Dataset[StreamRecord]): StreamingQuery =
    stream.writeStream
      .outputMode("update")
      .foreachBatch { (batch: Dataset[StreamRecord], _: Long) =>
        processBatch(batch.toDF())
      }
      .start()

  /** One micro-batch = one tumbling segment. Also callable directly from
    * a user-managed `foreachBatch` closure. An empty batch changes nothing.
    */
  def processBatch(segment: DataFrame): Unit = synchronized {
    if (processor.processSegment(segment).isDefined)
      latest = Some(processor.result.finalEstimate)
  }

  /** The user-facing real-time query answer (paper Figure 3, step 6). */
  def latestEstimate: Option[Double] = latest

  def result: RunResult = processor.result
}
