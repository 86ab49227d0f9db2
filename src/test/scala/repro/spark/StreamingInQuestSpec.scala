package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core._
import repro.data.StreamGen

/** Structured Streaming integration: a MemoryStream source fed one
  * tumbling segment per micro-batch must reproduce the local engine.
  */
class StreamingInQuestSpec extends SparkSpec {

  private val ds = StreamGen.videoLike("st", 5000, 0.5, 0.9, seed = 91)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 1000, budgetPerSegment = 50)

  private def records(seg: Range): Seq[StreamRecord] =
    seg.map(i => StreamRecord(i.toLong, ds.proxy(i), ds.statistic(i), ds.predicate(i)))

  test("streaming run equals the local engine segment by segment") {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), query, trialSeed = 3)
    val sq = engine.start(source.toDS())
    try {
      val local = new InQuest().run(ds, query, 3)
      ds.segments(query.segmentLength).zipWithIndex.foreach { case (seg, t) =>
        source.addData(records(seg))
        sq.processAllAvailable()
        val est = engine.result.perSegment
        assert(est.length == t + 1, s"expected ${t + 1} segments, saw ${est.length}")
        assert(math.abs(est(t) - local.perSegment(t)) < 1e-9,
          s"segment $t: streaming ${est(t)} vs local ${local.perSegment(t)}")
        // the user-facing real-time estimate updates every micro-batch
        assert(engine.latestEstimate.isDefined)
      }
      assert(math.abs(engine.result.finalEstimate - local.finalEstimate) < 1e-9)
      assert(engine.result.oracleCalls == local.oracleCalls)
    } finally sq.stop()
  }

  test("latest estimate is available in real time after the first batch") {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), query, trialSeed = 5)
    val sq = engine.start(source.toDS())
    try {
      assert(engine.latestEstimate.isEmpty)
      source.addData(records(0 until 1000))
      sq.processAllAvailable()
      val first = engine.latestEstimate
      assert(first.isDefined)
      source.addData(records(1000 until 2000))
      sq.processAllAvailable()
      assert(engine.latestEstimate.isDefined)
      assert(engine.result.perSegment.length == 2)
    } finally sq.stop()
  }

  test("empty micro-batches are ignored (no spurious segments)") {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), query, trialSeed = 7)
    val sq = engine.start(source.toDS())
    try {
      source.addData(records(0 until 1000))
      sq.processAllAvailable()
      sq.processAllAvailable() // no new data → no new segment
      assert(engine.result.perSegment.length == 1)
    } finally sq.stop()
  }
}
