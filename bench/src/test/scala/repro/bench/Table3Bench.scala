package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.eval.Tables

/** Table 3 reproduction: RMSE summary for the evaluation queries with NO
  * predicate. The paper's shape claims checked here:
  *
  *   - InQuest beats both streaming baselines at every budget
  *     (paper: 1.98x–2.05x geomean improvement);
  *   - InQuest is at least competitive with ABae
  *     (paper: 1.04x–1.40x, shrinking as the budget grows);
  *   - every algorithm's error decreases as the budget grows.
  */
class Table3Bench extends AnyFunSuite {

  private lazy val summary =
    Tables.rmseSummary(SparkSpec.shared, usePredicate = false, Tables.Scale.fromEnv())
  private val cols = Tables.Budgets.map(_.toString) :+ "All"

  test("Table 3: print RMSE summary (no predicate)") {
    println("=== Table 3: RMSE summary, no predicate ===")
    println(Tables.render(summary))
    assert(summary.detail.size == 6 * 3 * 4)
  }

  test("Table 3: InQuest beats the uniform baseline at every budget") {
    cols.foreach { c =>
      val imp = summary.rmse("uniform")(c) / summary.rmse("inquest")(c)
      assert(imp > 1.05, s"NT=$c: improvement over uniform only ${imp}x")
    }
  }

  test("Table 3: InQuest beats the fixed-stratified baseline at every budget") {
    cols.foreach { c =>
      val imp = summary.rmse("stratified")(c) / summary.rmse("inquest")(c)
      assert(imp > 1.1, s"NT=$c: improvement over stratified only ${imp}x")
    }
  }

  test("Table 3: InQuest is competitive with ABae (within 25% everywhere)") {
    cols.foreach { c =>
      val ratio = summary.rmse("abae")(c) / summary.rmse("inquest")(c)
      assert(ratio > 0.8, s"NT=$c: ABae ahead by ${1 / ratio}x")
    }
  }

  test("Table 3: every algorithm's RMSE decreases with the budget") {
    summary.rmse.foreach { case (algo, byBudget) =>
      assert(byBudget("5000") < byBudget("500"),
        s"$algo: rmse(5000)=${byBudget("5000")} !< rmse(500)=${byBudget("500")}")
    }
  }

  test("Table 3: per-dataset detail — InQuest beats uniform on every dataset at NT=5000") {
    val at5000 = summary.detail.filter(_.totalBudget == 5000)
    at5000.filter(_.algorithm == "inquest").foreach { iq =>
      val uni = at5000.find(p => p.dataset == iq.dataset && p.algorithm == "uniform").get
      assert(iq.meanTrialMedianError < uni.meanTrialMedianError,
        s"${iq.dataset}: inquest ${iq.meanTrialMedianError} !< uniform ${uni.meanTrialMedianError}")
    }
  }
}
