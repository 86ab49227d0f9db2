package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.eval.Tables

/** §5.6 / Figure 11 reproduction (numeric claims from the text): on
  * streams with n ∈ [1..5] sudden parameter shifts, InQuest outperforms
  * the streaming baselines (paper: 1.13x–1.42x) and stays comparable to
  * ABae (paper: within 0.99x–1.03x).
  */
class AdversarialBench extends AnyFunSuite {

  private lazy val summary = Tables.adversarial(SparkSpec.shared, Tables.Scale.fromEnv())
  private lazy val ns = summary.columns

  test("Adversarial: print summary by number of shifts") {
    println("=== Adversarial shifts (Figure 11 claims) ===")
    println(Tables.render(summary))
    assert(ns == Seq("1", "2", "3", "4", "5"))
  }

  test("Adversarial: InQuest beats uniform sampling on average over shift counts") {
    val imps = ns.map(summary.improvementOver("uniform", _))
    val avg = imps.sum / imps.size
    assert(avg > 1.05, s"avg improvement over uniform only ${avg}x (per-n: $imps)")
  }

  test("Adversarial: InQuest beats fixed stratified sampling on average") {
    val imps = ns.map(summary.improvementOver("stratified", _))
    val avg = imps.sum / imps.size
    assert(avg > 1.05, s"avg improvement over stratified only ${avg}x (per-n: $imps)")
  }

  test("Adversarial: InQuest stays comparable to ABae (within 15%)") {
    val ratios = ns.map(summary.improvementOver("abae", _))
    val avg = ratios.sum / ratios.size
    assert(avg > 0.85, s"ABae ahead by ${1 / avg}x on average (per-n: $ratios)")
  }
}
