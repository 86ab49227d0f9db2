package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.util.Stats

/** Reproductions of the paper's evaluation tables (DESIGN.md §5). Each
  * `tableN` method runs the experiment and returns the formatted rows;
  * jobs/ entrypoints and bench/ suites both call these.
  */
object Tables {

  /** Experiment scale knobs, env-overridable so benches can run at
    * reduced cost (paper scale: length 500 000, 1000 trials).
    */
  final case class Scale(length: Int, trials: Int, advPerShift: Int, advLength: Int)
  object Scale {
    def fromEnv(): Scale = Scale(
      length = sys.env.get("REPRO_LENGTH").map(_.toInt).getOrElse(500_000),
      trials = sys.env.get("REPRO_TRIALS").map(_.toInt).getOrElse(200),
      advPerShift = sys.env.get("REPRO_ADV_PER_SHIFT").map(_.toInt).getOrElse(4),
      advLength = sys.env.get("REPRO_ADV_LENGTH").map(_.toInt).getOrElse(100_000),
    )
  }

  private def fmt(x: Double): String = f"$x%.4f"

  // ------------------------------------------------------------------
  // Table 2: dataset summary — predicate positivity p and proxy→statistic
  // Pearson r, measured on our synthetic analogues vs the paper's targets.
  // r is measured against the predicate-masked statistic O(x)·f(x), the
  // signal the paper's proxies score (zero-count frames have statistic 0).
  // ------------------------------------------------------------------
  final case class Table2Row(dataset: String, paperP: Double, measuredP: Double,
                             paperR: Double, measuredR: Double)

  def table2(length: Int): Seq[Table2Row] =
    Datasets.specs.map { spec =>
      val ds = Datasets.generate(spec.name, length)
      val p = ds.predicate.count(identity).toDouble / ds.length
      val masked = Array.tabulate(ds.length)(i => if (ds.predicate(i)) ds.statistic(i) else 0.0)
      val r = Stats.pearson(ds.proxy.toSeq, masked.toSeq)
      Table2Row(spec.name, spec.p, p, spec.r, r)
    }

  def renderTable2(rows: Seq[Table2Row]): String = {
    val header = f"${"dataset"}%-18s ${"p(paper)"}%9s ${"p(ours)"}%9s ${"r(paper)"}%9s ${"r(ours)"}%9s"
    (header +: rows.map(r =>
      f"${r.dataset}%-18s ${r.paperP}%9.2f ${r.measuredP}%9.3f ${r.paperR}%9.2f ${r.measuredR}%9.3f"
    )).mkString("\n")
  }

  // ------------------------------------------------------------------
  // Tables 3 & 4 and the adversarial-shift experiment (§5.6 / Figure 11,
  // numeric claims) are one sweep: every algorithm at each point, each
  // algorithm's mean (over trials) of each trial's median segment error
  // combined per column. Improvement rows are baseline / InQuest.
  // ------------------------------------------------------------------
  val Budgets: Seq[Int] = Seq(500, 2500, 5000)

  /** One experiment's table. `rmse(algorithm)(column)` holds every
    * algorithm of `Algorithms.All` in every column; `prefix` heads each
    * column (`NT=` for budgets, `n=` for shift counts); `detail` holds the
    * evaluated points in sweep order.
    */
  final case class Summary(
      prefix: String,
      columns: Seq[String],
      rmse: Map[String, Map[String, Double]],
      detail: Seq[EvalPoint],
  ) {
    def improvementOver(algo: String, column: String): Double =
      rmse(algo)(column) / rmse("inquest")(column)
  }

  /** Evaluate every algorithm at each `(column, stream, query, baseSeed)`
    * point, in order, and combine each algorithm's `meanTrialMedianError`s
    * per column, in point order. Columns keep their first-seen order. A
    * stream is held only while the sweep is at its points.
    */
  private def sweep(
      spark: SparkSession,
      prefix: String,
      trials: Int,
      points: Iterator[(String, StreamDataset, QueryConfig, Long)],
      combine: Seq[Double] => Double,
  ): Summary = {
    val evaluated = points.flatMap { case (column, ds, query, baseSeed) =>
      Algorithms.All.map(a => column -> Runner.evaluate(spark, ds, a, query, trials, baseSeed))
    }.toVector
    val columns = evaluated.map(_._1).distinct
    val rmse = Algorithms.All.map { a =>
      a -> columns.map { c =>
        c -> combine(evaluated.collect { case (`c`, p) if p.algorithm == a => p.meanTrialMedianError })
      }.toMap
    }.toMap
    Summary(prefix, columns, rmse, evaluated.map(_._2))
  }

  /** Tables 3 & 4: for each total budget NT, the geometric mean across
    * datasets; "All" is the geomean over the budget columns.
    */
  def rmseSummary(spark: SparkSession, usePredicate: Boolean, scale: Scale): Summary = {
    val segLen = math.max(1, scale.length / 5)
    val points = for {
      ds <- Datasets.names.iterator.map(Datasets.generate(_, scale.length))
      budget <- Budgets
    } yield (budget.toString, ds, QueryConfig(AggFunc.Avg, usePredicate, segLen, budgetPerSegment = budget / 5),
      Datasets.CatalogueSeed * 100 + budget)
    val s = sweep(spark, "NT=", scale.trials, points, Stats.geomean)
    s.copy(columns = s.columns :+ "All",
      rmse = s.rmse.map { case (a, byCol) => a -> (byCol + ("All" -> Stats.geomean(s.columns.map(byCol)))) })
  }

  /** §5.6 settings: total budget NT and trials per point. */
  private val AdvBudget = 2500
  private val AdvTrials = 50

  /** §5.6: for each number of shifts n, the mean across the suite's
    * streams.
    */
  def adversarial(spark: SparkSession, scale: Scale): Summary = {
    val query = QueryConfig(AggFunc.Avg, usePredicate = true, math.max(1, scale.advLength / 5),
      budgetPerSegment = AdvBudget / 5)
    val points = Datasets.adversarialSuite(scale.advLength, scale.advPerShift)
      .map { case (n, ds) => (n.toString, ds, query, Datasets.SuiteSeed + n) }
    sweep(spark, "n=", AdvTrials, points, xs => xs.sum / xs.size)
  }

  def render(s: Summary): String = {
    val header = f"${"algorithm"}%-22s " + s.columns.map(c => f"${s.prefix + c}%10s").mkString(" ")
    val rmseRows = Algorithms.All.map { a =>
      f"RMSE_$a%-17s " + s.columns.map(c => f"${fmt(s.rmse(a)(c))}%10s").mkString(" ")
    }
    val improvements = Algorithms.All.filterNot(_ == "inquest").map { a =>
      f"improvement vs $a%-7s " + s.columns.map(c => f"${s.improvementOver(a, c)}%9.2fx").mkString(" ")
    }
    (header +: (rmseRows ++ improvements)).mkString("\n")
  }
}
