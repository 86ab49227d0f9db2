package repro.eval

import repro.SparkSpec
import repro.core._
import repro.data.StreamGen

class RunnerSpec extends SparkSpec {

  private val ds = StreamGen.videoLike("run", 10000, 0.5, 0.9, seed = 61)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 2000, budgetPerSegment = 80)

  /** Five segments whose total budget N·T, 2 500 000 000, overflows an `Int`. */
  private val hugeBudget = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 2000, budgetPerSegment = 500_000_000)

  test("Algorithms registry knows all four algorithms") {
    val classes = Algorithms.All.map(n => Algorithms.byName(n).getClass)
    assert(classes.distinct.size == Algorithms.All.size)
    assertThrows[IllegalArgumentException](Algorithms.byName("nope"))
  }

  test("uniform and abae sample every record when N·T overflows an Int") {
    val truths = ds.truthPerSegment(hugeBudget.segmentLength, hugeBudget.usePredicate)
    Seq("uniform", "abae").foreach { a =>
      val r = Algorithms.byName(a).run(ds, hugeBudget, 1)
      assert(r.oracleCalls == ds.length, a)
      r.perSegment.zip(truths).foreach { case (e, t) => assert(math.abs(e - t) < 1e-9, a) }
    }
  }

  test("distributed evaluation equals local trials (same seeds)") {
    // `summarize` sums in the order Spark collects the trials: a round-robin
    // repartition of `spark.range` to the default parallelism.
    val sparkOrder = spark.range(16).repartition(spark.sparkContext.defaultParallelism)
      .collect().map(_.longValue.toInt).toSeq
    Algorithms.All.foreach { a =>
      val distributed = Runner.evaluate(spark, ds, a, query, nTrials = 16, baseSeed = 100)
      val localOutcomes = (0 until 16).map { t =>
        val r = Algorithms.byName(a).run(ds, query, 100L + t)
        TrialOutcome(t.toLong, r.perSegment.toSeq, r.finalEstimate, r.oracleCalls)
      }
      assert(distributed == Runner.summarize(ds, a, query, sparkOrder.map(localOutcomes)), a)
    }
  }

  test("a trial function serializes to under 20 bytes per record (no proxies)") {
    val big = StreamGen.videoLike("big", 100_000, 0.5, 0.9, seed = 62)
    val q = query.copy(segmentLength = 20_000)
    Algorithms.All.foreach { a =>
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(Algorithms.byName(a).prepare(big, q))
      out.close()
      assert(bytes.size < 20 * big.length, s"$a: ${bytes.size} bytes for ${big.length} records")
    }
  }

  test("evaluate runs every algorithm end-to-end on Spark") {
    Algorithms.All.foreach { a =>
      val p = Runner.evaluate(spark, ds, a, query, nTrials = 8, baseSeed = 7)
      assert(p.algorithm == a)
      assert(p.nTrials == 8)
      assert(p.totalBudget == 400)
      assert(p.meanTrialMedianError >= 0 && !p.meanTrialMedianError.isNaN)
      assert(p.meanOracleCalls <= 400)
    }
  }

  test("summarize computes the budget from segments x per-segment budget") {
    val o = Seq(TrialOutcome(0, Seq.fill(5)(1.0), 1.0, 100))
    val p = Runner.summarize(ds, "x", query, o)
    assert(p.totalBudget == 400)
    assert(p.dataset == "run")
  }

  test("summarize reports an N·T past Int.MaxValue as a Long") {
    val o = Seq(TrialOutcome(0, Seq.fill(5)(1.0), 1.0, 100))
    assert(Runner.summarize(ds, "x", hugeBudget, o).totalBudget == 2_500_000_000L)
  }
}
