package repro.eval

import repro.SparkSpec

/** Structural checks of the table harness at toy scale — the real
  * reproductions (paper-scale streams, full trial counts, shape
  * assertions) live in the bench suites.
  */
class TablesSpec extends SparkSpec {

  private val tiny = Tables.Scale(length = 10000, trials = 4, advPerShift = 1, advLength = 5000)

  test("table2 produces one calibrated row per catalogue dataset") {
    val rows = Tables.table2(length = 30000)
    assert(rows.map(_.dataset) == repro.data.Datasets.names)
    rows.foreach { r =>
      assert(r.measuredP > 0 && r.measuredP < 1)
      assert(math.abs(r.measuredR - r.paperR) < 0.05)
    }
    val rendered = Tables.renderTable2(rows)
    assert(rendered.linesIterator.size == 7)
  }

  test("rmseSummary covers every (dataset, budget, algorithm) cell") {
    val s = Tables.rmseSummary(spark, usePredicate = false, tiny)
    assert(s.detail.size == 6 * 3 * 4)
    assert(s.columns == Seq("500", "2500", "5000", "All"))
    Algorithms.All.foreach { a =>
      val byBudget = s.rmse(a)
      assert(byBudget.keySet == Set("500", "2500", "5000", "All"))
      byBudget.values.foreach(v => assert(v > 0 && !v.isNaN))
    }
    val rendered = Tables.render(s)
    assert(rendered.contains("RMSE_inquest"))
    assert(rendered.contains("improvement vs abae"))
  }

  test("a budget that covers the stream renders: every error is exactly 0") {
    // NT = 5000 over 5000 records: every algorithm samples every record.
    val s = Tables.rmseSummary(spark, usePredicate = false, Tables.Scale(5000, 4, 1, 5000))
    Algorithms.All.foreach(a => assert(s.rmse(a)("5000") == 0.0 && s.rmse(a)("All") == 0.0, a))
    val improvements = Tables.render(s).linesIterator.filter(_.startsWith("improvement")).toSeq
    assert(improvements.size == 3)
    improvements.foreach(row => assert(!row.contains("Infinityx"), row))
  }

  test("adversarial summary covers every shift count") {
    val s = Tables.adversarial(spark, tiny)
    assert(s.columns == Seq("1", "2", "3", "4", "5"))
    assert(s.detail.size == 5 * 4)
    assert(s.rmse.keySet == Algorithms.All.toSet)
    s.rmse.values.foreach { byColumn =>
      assert(byColumn.keySet == s.columns.toSet)
    }
    assert(Tables.render(s).contains("RMSE_uniform"))
  }

  test("render prints fixed-width columns, 4-digit cells, factors and the column prefix") {
    def summary(prefix: String, c1: String, c2: String) = Tables.Summary(prefix, Seq(c1, c2), Map(
      "uniform" -> Map(c1 -> 7.5, c2 -> 0.75),
      "stratified" -> Map(c1 -> 1.2, c2 -> 0.6),
      "abae" -> Map(c1 -> 0.123456, c2 -> 0.45),
      "inquest" -> Map(c1 -> 0.6, c2 -> 0.3),
    ), detail = Nil)
    val body = Seq(
      "RMSE_uniform               7.5000     0.7500",
      "RMSE_stratified            1.2000     0.6000",
      "RMSE_abae                  0.1235     0.4500",
      "RMSE_inquest               0.6000     0.3000",
      "improvement vs uniform     12.50x      2.50x",
      "improvement vs stratified      2.00x      2.00x",
      "improvement vs abae         0.21x      1.50x")
    assert(Tables.render(summary("NT=", "500", "All")) ==
      ("algorithm                  NT=500     NT=All" +: body).mkString("\n"))
    assert(Tables.render(summary("n=", "1", "2")) ==
      ("algorithm                     n=1        n=2" +: body).mkString("\n"))
  }

  test("Scale.fromEnv falls back to paper-scale defaults") {
    val s = Tables.Scale.fromEnv()
    assert(s.length > 0 && s.trials > 0 && s.advPerShift > 0 && s.advLength > 0)
  }
}
