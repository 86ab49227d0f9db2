package repro.eval

import org.apache.spark.sql.SparkSession
import repro.abae.ABae
import repro.baselines.{FixedStratified, UniformSampling}
import repro.core._

/** Algorithm registry. What crosses the serialization boundary to the
  * Spark tasks is an algorithm's trial function (its plan and the stream's
  * `statistic` and `predicate` columns), which is immutable, so trials
  * share it without coordination.
  */
object Algorithms {
  val All: Seq[String] = Seq("uniform", "stratified", "abae", "inquest")

  private val params = InQuestParams()

  def byName(name: String): StreamAlgorithm =
    name match {
      case "uniform"    => new UniformSampling
      case "stratified" => new FixedStratified(params.k)
      case "abae"       => new ABae(params.k)
      case "inquest"    => new InQuest(params)
      case other        => throw new IllegalArgumentException(
        s"unknown algorithm '$other'; known: ${All.mkString(", ")}")
    }
}

/** One Monte-Carlo trial's outputs (Dataset row for the Spark fan-out). */
final case class TrialOutcome(
    trial: Long,
    perSegment: Seq[Double],
    finalEstimate: Double,
    oracleCalls: Long,
)

/** Aggregated evaluation of one (dataset, algorithm, budget) point. */
final case class EvalPoint(
    dataset: String,
    algorithm: String,
    totalBudget: Long,
    nTrials: Int,
    meanTrialMedianError: Double,
    medianSegmentRmse: Double,
    fullQueryRmse: Double,
    meanOracleCalls: Double,
)

/** Distributed Monte-Carlo evaluation: the paper's 1000-trial loops as a
  * Spark job — `spark.range(nTrials)` with the algorithm's trial function
  * (its plan, built once per call on the driver, and the stream's
  * `statistic` and `predicate` columns) broadcast, and one
  * record-at-a-time trial per row (DESIGN.md §6, "Trials over Spark").
  */
object Runner {

  def evaluate(
      spark: SparkSession,
      ds: StreamDataset,
      algorithm: String,
      query: QueryConfig,
      nTrials: Int,
      baseSeed: Long = 1234,
  ): EvalPoint = {
    require(nTrials > 0, s"need at least one trial, got $nTrials")
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(Algorithms.byName(algorithm).prepare(ds, query))
    val outcomes: Seq[TrialOutcome] =
      try {
        spark.range(nTrials)
          .repartition(spark.sparkContext.defaultParallelism)
          .map { trial =>
            val r = bc.value(baseSeed + trial)
            TrialOutcome(trial, r.perSegment.toSeq, r.finalEstimate, r.oracleCalls)
          }
          .collect()
          .toSeq
      } finally bc.destroy()

    summarize(ds, algorithm, query, outcomes)
  }

  /** Pure aggregation step, also used by tests with locally-run trials. */
  def summarize(
      ds: StreamDataset,
      algorithm: String,
      query: QueryConfig,
      outcomes: Seq[TrialOutcome],
  ): EvalPoint = {
    val truths = ds.truthPerSegment(query.segmentLength, query.usePredicate, query.agg).toSeq
    val truthAll = ds.truthOverall(query.usePredicate, query.agg)
    EvalPoint(
      dataset = ds.name,
      algorithm = algorithm,
      totalBudget = query.totalBudget(ds.segments(query.segmentLength).size),
      nTrials = outcomes.size,
      meanTrialMedianError =
        outcomes.map(o => Metrics.trialMedianSegmentError(o.perSegment, truths)).sum / outcomes.size,
      medianSegmentRmse = Metrics.medianSegmentRmse(outcomes.map(_.perSegment), truths),
      fullQueryRmse = Metrics.fullQueryRmse(outcomes.map(_.finalEstimate), truthAll),
      meanOracleCalls = outcomes.map(_.oracleCalls.toDouble).sum / outcomes.size,
    )
  }
}
