package perfbench

import repro.core.{QueryConfig, StreamDataset}
import repro.data.Datasets
import repro.query.QueryParser
import repro.spark.StreamRecord

/** One benchmark workload: a query answered by a Monte-Carlo loop of
  * `Runner.evaluate` calls (one per algorithm), and a query answered live by
  * `StreamingInQuest`, both over streams generated from the workload seed.
  * Queries are written in the paper's Figure 2 syntax. `roundSeconds` is
  * the time of one call per algorithm on one stream on a quiet 4-core
  * host; it sizes the timed Monte-Carlo phase. A timed streaming episode
  * feeds `segmentsPerEpisode` segments: the pilot and the rest post-pilot.
  */
final case class Workload(
    name: String,
    mcSql: String,
    streamSql: String,
    trialsPerCall: Map[String, Int],
    roundSeconds: Double,
    segmentsPerEpisode: Int,
    streamsPerShift: Int = 0,
)

object Workloads {

  val PaperScale: Workload = Workload(
    name = "mc-paper-scale",
    mcSql =
      """SELECT AVG(count) FROM archie
        |TUMBLE(frame_idx, INTERVAL '100,000' FRAMES)
        |ORACLE LIMIT 100
        |DURATION INTERVAL '500,000' FRAMES
        |USING proxy_count""".stripMargin,
    streamSql =
      """SELECT AVG(count) FROM archie
        |WHERE count > 0
        |TUMBLE(frame_idx, INTERVAL '100,000' FRAMES)
        |ORACLE LIMIT 500
        |DURATION INTERVAL '500,000' FRAMES
        |USING proxy_count""".stripMargin,
    // The repo's experiments run 200 trials per call. ABae and InQuest
    // trials take 0.2-0.5 s each here, so a call of 200 would take 15-30 s,
    // longer than the Monte-Carlo phase; 24 is eight per task thread.
    // perfbench/README.md gives the rate measured at 24 against 200 trials
    // per call.
    trialsPerCall = Map("uniform" -> 200, "stratified" -> 200, "abae" -> 24, "inquest" -> 24),
    roundSeconds = 11.0,
    segmentsPerEpisode = 2,
  )

  val ManyStreams: Workload = Workload(
    name = "mc-many-streams",
    mcSql =
      """SELECT AVG(value) FROM adversarial
        |WHERE matches
        |TUMBLE(idx, INTERVAL '20,000' RECORDS)
        |ORACLE LIMIT 500
        |DURATION INTERVAL '100,000' RECORDS
        |USING proxy""".stripMargin,
    streamSql =
      """SELECT AVG(value) FROM adversarial
        |WHERE matches
        |TUMBLE(idx, INTERVAL '20,000' RECORDS)
        |ORACLE LIMIT 500
        |DURATION INTERVAL '100,000' RECORDS
        |USING proxy""".stripMargin,
    // 50 trials per call, as the repo's §5.6 experiment runs them.
    trialsPerCall = Map("uniform" -> 50, "stratified" -> 50, "abae" -> 50, "inquest" -> 50),
    roundSeconds = 3.3,
    segmentsPerEpisode = 4,
    streamsPerShift = 1,
  )

  val All: Seq[Workload] = Seq(PaperScale, ManyStreams)

  def byName(name: String): Workload =
    All.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${All.map(_.name).mkString(", ")}"))
}

/** Everything a workload feeds the system, built before anything is
  * timed: the compiled queries, the streams, and each stream cut into
  * `StreamRecord` batches of one segment each.
  */
final case class Inputs(
    mcQuery: QueryConfig,
    streamQuery: QueryConfig,
    streams: Vector[StreamDataset],
    batches: Vector[Vector[Seq[StreamRecord]]],
) {
  /** Segments T of one Monte-Carlo trial, so N·T is its oracle budget. */
  def mcSegments: Int = streams.head.segments(mcQuery.segmentLength).size
}

object Inputs {

  /** Streams named by the queries' FROM and DURATION clauses. The §5.6
    * suite stands behind the name `adversarial`.
    */
  def streams(w: Workload, seed: Long): Vector[StreamDataset] = {
    val mc = QueryParser.parse(w.mcSql)
    val st = QueryParser.parse(w.streamSql)
    require(mc.dataset == st.dataset && mc.duration == st.duration,
      s"${w.name}: both queries must read the same stream")
    val length = mc.duration.getOrElse(throw new IllegalArgumentException(
      s"${w.name}: the query needs a DURATION")).toRecords().toInt
    if (mc.dataset == "adversarial")
      Datasets.adversarialSuite(length, w.streamsPerShift, seed).map(_._2).toVector
    else Vector(Datasets.generate(mc.dataset, length, seed))
  }

  def records(ds: StreamDataset, segmentLength: Int): Vector[Seq[StreamRecord]] =
    ds.segments(segmentLength).map { seg =>
      seg.map(i => StreamRecord(i.toLong, ds.proxy(i), ds.statistic(i), ds.predicate(i)))
    }.toVector

  def queries(w: Workload): (QueryConfig, QueryConfig) =
    (QueryParser.parse(w.mcSql).toQueryConfig(), QueryParser.parse(w.streamSql).toQueryConfig())
}
