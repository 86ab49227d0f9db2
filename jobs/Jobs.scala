package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Tables

/** The shared body of the spark-submit entrypoints that run a sweep. */
object JobSession {

  /** Compute `summary` on a new session named `app`, print it under
    * `title`, then stop the session.
    */
  def printSummary(app: String, title: String)(summary: SparkSession => Tables.Summary): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try {
      val s = summary(spark)
      println(title)
      println(Tables.render(s))
    } finally spark.stop()
  }
}

/** Table 2 — dataset summary (predicate positivity p, proxy correlation r)
  * measured on our synthetic analogues vs the paper's reported values.
  *
  * spark-submit --class repro.jobs.Table2Job target/scala-2.13/repro_*.jar
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val scale = Tables.Scale.fromEnv()
    println("=== Table 2: dataset summary (paper targets vs measured) ===")
    println(Tables.renderTable2(Tables.table2(scale.length)))
  }
}

/** Table 3 — RMSE summary for the evaluation queries *without* a
  * predicate: geomean across datasets at NT = 500 / 2500 / 5000 / All,
  * plus InQuest's improvement factors over each baseline.
  */
object Table3Job {
  def main(args: Array[String]): Unit =
    JobSession.printSummary("inquest-table3", "=== Table 3: RMSE summary, no predicate ===")(
      Tables.rmseSummary(_, usePredicate = false, Tables.Scale.fromEnv()))
}

/** Table 4 — RMSE summary for the evaluation queries *with* a predicate. */
object Table4Job {
  def main(args: Array[String]): Unit =
    JobSession.printSummary("inquest-table4", "=== Table 4: RMSE summary, with predicate ===")(
      Tables.rmseSummary(_, usePredicate = true, Tables.Scale.fromEnv()))
}

/** §5.6 / Figure 11 — adversarial stream-parameter shifts (numeric
  * claims: InQuest beats streaming baselines 1.13×–1.42×, within
  * 0.99×–1.03× of ABae).
  */
object AdversarialJob {
  def main(args: Array[String]): Unit =
    JobSession.printSummary("inquest-adversarial", "=== Adversarial shifts (Figure 11 claims) ===")(
      Tables.adversarial(_, Tables.Scale.fromEnv()))
}
