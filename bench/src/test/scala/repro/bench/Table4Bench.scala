package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.eval.Tables

/** Table 4 reproduction: RMSE summary for the evaluation queries WITH a
  * predicate. Paper shape claims: InQuest beats the streaming baselines
  * at every budget (1.32x–1.58x) and beats ABae throughout
  * (1.26x–1.97x, largest at small budgets).
  */
class Table4Bench extends AnyFunSuite {

  private lazy val summary =
    Tables.rmseSummary(SparkSpec.shared, usePredicate = true, Tables.Scale.fromEnv())
  private val cols = Tables.Budgets.map(_.toString) :+ "All"

  test("Table 4: print RMSE summary (with predicate)") {
    println("=== Table 4: RMSE summary, with predicate ===")
    println(Tables.render(summary))
    assert(summary.detail.size == 6 * 3 * 4)
  }

  test("Table 4: InQuest beats the uniform baseline at every budget") {
    cols.foreach { c =>
      val imp = summary.rmse("uniform")(c) / summary.rmse("inquest")(c)
      assert(imp > 1.05, s"NT=$c: improvement over uniform only ${imp}x")
    }
  }

  test("Table 4: InQuest beats the fixed-stratified baseline at every budget") {
    cols.foreach { c =>
      val imp = summary.rmse("stratified")(c) / summary.rmse("inquest")(c)
      assert(imp > 1.03, s"NT=$c: improvement over stratified only ${imp}x")
    }
  }

  test("Table 4: InQuest is competitive with ABae in the predicate setting") {
    cols.foreach { c =>
      val ratio = summary.rmse("abae")(c) / summary.rmse("inquest")(c)
      assert(ratio > 0.8, s"NT=$c: ABae ahead by ${1 / ratio}x")
    }
  }

  test("Table 4: every algorithm's RMSE decreases with the budget") {
    summary.rmse.foreach { case (algo, byBudget) =>
      assert(byBudget("5000") < byBudget("500"),
        s"$algo: rmse(5000)=${byBudget("5000")} !< rmse(500)=${byBudget("500")}")
    }
  }
}
