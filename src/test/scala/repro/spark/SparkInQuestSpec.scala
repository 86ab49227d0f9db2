package repro.spark

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{AnalysisException, DataFrame}
import org.apache.spark.sql.functions.{col, lit, udf}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.SparkSpec
import repro.core._
import repro.data.StreamGen
import repro.testkit.SparkData
import scala.jdk.CollectionConverters._

/** The Catalyst engine, stepped one `processBatch` per segment, must make
  * the record-at-a-time local engine's decisions and match its estimates
  * (same hash-based sampling, same quantile definition) — DESIGN.md §6.
  */
class SparkInQuestSpec extends SparkSpec {

  private val ds = StreamGen.videoLike("sq", 6000, 0.5, 0.9, seed = 81)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 1200, budgetPerSegment = 60)

  /** The Catalyst engine stepped over `df`, one `processBatch` per
    * segment of `d`, and the step each batch returned.
    */
  private def catalyst(d: StreamDataset, df: DataFrame, q: QueryConfig, seed: Long,
                       params: InQuestParams = InQuestParams()): (StreamingInQuest, Seq[InQuest.Step]) = {
    val engine = new StreamingInQuest(params, q, seed)
    val steps = d.segments(q.segmentLength).map { seg =>
      engine.processBatch(df.filter(col("idx") >= seg.start && col("idx") < seg.end))
        .getOrElse(fail(s"the batch of idx ${seg.start} returned no step"))
    }
    (engine, steps)
  }

  /** Both engines on `d`: the same steps (boundaries, raw allocations,
    * cell sizes and sample counts) and the same estimates, within the
    * per-segment budget. The Catalyst side reads a DataFrame shuffled into
    * `partitions`, so its keys arrive out of `idx` order.
    */
  private def assertSameTrace(d: StreamDataset, q: QueryConfig, seed: Long,
                              params: InQuestParams = InQuestParams(), partitions: Int = 3): Unit = {
    val (cat, steps) = catalyst(d, SparkData.toDF(spark, d, partitions), q, seed, params)
    assertLocalTrace(cat, steps, d, q, seed, params)
  }

  /** `catSteps`, the steps `cat` returned, and `cat`'s estimates are the
    * local engine's on `d`.
    */
  private def assertLocalTrace(cat: StreamingInQuest, catSteps: Seq[InQuest.Step], d: StreamDataset,
                               q: QueryConfig, seed: Long, params: InQuestParams = InQuestParams()): Unit = {
    val (localSteps, local) = new InQuest(params).prepareTraced(d, q)(seed)
    assert(catSteps.size == localSteps.size)
    catSteps.zip(localSteps).foreach { case (c, l) =>
      assert(c.t == l.t)
      assert(c.boundaries.toSeq == l.boundaries.toSeq, s"segment ${l.t}")
      assert(c.cells.map(x => (x.sizeD, x.nSampled, x.nPos)) == l.cells.map(x => (x.sizeD, x.nSampled, x.nPos)),
        s"segment ${l.t}")
      assert(c.rawAllocation.length == l.rawAllocation.length)
      c.rawAllocation.zip(l.rawAllocation).foreach { case (x, y) =>
        assert(math.abs(x - y) < 1e-9, s"raw allocation mismatch in segment ${l.t}: $x vs $y")
      }
    }
    (cat.result.perSegment :+ cat.result.finalEstimate)
      .zip(local.perSegment :+ local.finalEstimate).foreach { case (c, l) =>
        assert(math.abs(c - l) < 1e-9, s"estimate mismatch: $c vs $l")
      }
    assert(cat.result.oracleCalls == local.oracleCalls)
    assert(cat.result.oracleCalls <= d.segments(q.segmentLength).size.toLong * q.budgetPerSegment)
  }

  test("Spark engine equals the local engine exactly (predicate query)") {
    assertSameTrace(ds, query, 5)
  }

  test("Spark engine equals the local engine exactly (no predicate)") {
    assertSameTrace(ds, query.copy(usePredicate = false), 9)
  }

  test("equivalence holds across trial seeds") {
    Seq(1L, 2L, 3L).foreach(assertSameTrace(ds, query, _))
  }

  test("equivalence is partitioning-invariant (shuffle path exercised)") {
    assertSameTrace(ds, query, 4, partitions = 13)
  }

  test("per-segment oracle budget is enforced in the Spark engine") {
    assertSameTrace(ds, query, 6)
  }

  test("non-default hyperparameters stay equivalent") {
    assertSameTrace(ds, query, 7, InQuestParams(k = 4, alpha = 0.5, defensiveFraction = 0.2))
  }

  test("a short final segment: same trace and estimates as the local engine") {
    val q = query.copy(segmentLength = 1100)
    assert(ds.segments(q.segmentLength).last.size == 500)
    assertSameTrace(ds, q, 12)
  }

  test("a budget at or above the segment length: same trace, every record sampled") {
    val small = StreamDataset("small", ds.proxy.take(1000), ds.statistic.take(1000), ds.predicate.take(1000))
    Seq(200, 250).foreach { budget =>
      val q = query.copy(segmentLength = 200, budgetPerSegment = budget)
      assertSameTrace(small, q, 13)
      assert(new InQuest().run(small, q, 13).oracleCalls == small.length)
    }
  }

  test("constant proxies with K above the number of distinct proxies: same trace") {
    val n = 3600
    Seq[Int => Double](_ => 0.5, i => if (i % 3 == 0) 0.2 else 0.7).foreach { proxy =>
      val d = StreamDataset("const", Array.tabulate(n)(proxy), ds.statistic.take(n), ds.predicate.take(n))
      assertSameTrace(d, query, 14, InQuestParams(k = 4))
    }
  }

  private def records(n: Int, proxy: Int => Double = ds.proxy(_)): Seq[StreamRecord] =
    (0 until n).map(i => StreamRecord(i.toLong, proxy(i), ds.statistic(i), ds.predicate(i)))

  /** Spark jobs started by `body`. Listener events arrive in order, so once
    * a marker job started after `body` has been seen, every job of `body`
    * has been counted.
    */
  private def jobsStartedBy(body: => Unit): Int = {
    val sc = spark.sparkContext
    val key = "repro.test.op"
    val ops = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))).foreach(ops.add)
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, "body")
      try body finally sc.setLocalProperty(key, "marker")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(Span(30, Seconds))) { assert(ops.contains("marker")) }
      ops.asScala.count(_ == "body")
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }

  test("the pilot and a post-pilot segment each run at most two Spark jobs") {
    // An RDD-backed input, so that every action runs a job: filters over a
    // local relation would be evaluated on the driver without one.
    val df = spark.createDataFrame(spark.sparkContext.parallelize(records(2 * query.segmentLength), 4))
    val engine = new StreamingInQuest(InQuestParams(), query, 3L)
    Seq("pilot", "post-pilot").zipWithIndex.foreach { case (name, t) =>
      val seg = df.filter(col("idx") >= t * query.segmentLength && col("idx") < (t + 1) * query.segmentLength)
      val jobs = jobsStartedBy(engine.processBatch(seg))
      assert(jobs >= 1 && jobs <= 2, s"the $name segment started $jobs Spark jobs")
    }
    assert(engine.result.perSegment.length == 2)
  }

  test("the oracle columns are read on sampled rows only") {
    val reads = spark.sparkContext.longAccumulator("oracle reads")
    val oracle = udf { (f: Double) => reads.add(1); f }
    val df = SparkData.toDF(spark, ds, partitions = 4).withColumn("statistic", oracle(col("statistic")))
    val r = catalyst(ds, df, query, 11)._1.result
    assert(r.oracleCalls == new InQuest().run(ds, query, 11).oracleCalls)
    assert(reads.value == r.oracleCalls)
  }

  test("non-finite proxies fail the segment, naming the smallest bad idx") {
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { bad =>
      val recs = records(query.segmentLength, i => if (i == 700 || i == 900) bad else ds.proxy(i))
      val engine = new StreamingInQuest(InQuestParams(), query, 1L)
      val e = intercept[IllegalArgumentException](
        engine.processBatch(spark.createDataFrame(recs).repartition(3)))
      assert(e.getMessage.contains(s"non-finite proxy $bad at idx 700"), e.getMessage)
      assert(engine.result.perSegment.isEmpty)
    }
  }

  test("a failed batch changes nothing: its retry gives the local engine's trace") {
    val df = SparkData.toDF(spark, ds, partitions = 3)
    val engine = new StreamingInQuest(InQuestParams(), query, 5L)
    val steps = ds.segments(query.segmentLength).zipWithIndex.map { case (seg, t) =>
      val batch = df.filter(col("idx") >= seg.start && col("idx") < seg.end)
      if (t == 0 || t == 2) {
        // The oracle read (action 2) fails on a batch without the statistic.
        intercept[AnalysisException](engine.processBatch(batch.drop("statistic")))
        assert(engine.result.perSegment.length == t)
      }
      engine.processBatch(batch).get
    }
    assertLocalTrace(engine, steps, ds, query, 5L)
  }

  test("a batch that repeats an idx fails, naming the smallest; its clean retry gives the local trace") {
    val df = SparkData.toDF(spark, ds, partitions = 3)
    val engine = new StreamingInQuest(InQuestParams(), query, 8L)
    val steps = ds.segments(query.segmentLength).zipWithIndex.map { case (seg, t) =>
      val batch = df.filter(col("idx") >= seg.start && col("idx") < seg.end)
      if (t == 0 || t == 2) {
        val repeated = batch.filter(col("idx") >= seg.start + 100 && col("idx") < seg.start + 150)
        val e = intercept[IllegalArgumentException](engine.processBatch(batch.union(repeated)))
        assert(e.getMessage.contains(s"idx ${seg.start + 100} appears more than once"), e.getMessage)
        assert(engine.result.perSegment.length == t)
      }
      engine.processBatch(batch).get
    }
    assertLocalTrace(engine, steps, ds, query, 8L)
  }

  test("a batch outside its tumbling window fails, naming the smallest such idx; its clean retry gives the local trace") {
    val df = SparkData.toDF(spark, ds, partitions = 3)
    val l = query.segmentLength
    def windows(from: Int, until: Int) = df.filter(col("idx") >= from * l && col("idx") < until * l)
    // Per segment t: a wrong batch and the smallest idx outside window t.
    val wrong = Map(
      0 -> ("a skipped window", windows(1, 2), l),
      1 -> ("a replayed window", windows(0, 1), 0),
      2 -> ("two windows in one batch", windows(2, 4), 3 * l))
    val engine = new StreamingInQuest(InQuestParams(), query, 10L)
    val steps = ds.segments(l).zipWithIndex.map { case (seg, t) =>
      wrong.get(t).foreach { case (name, batch, first) =>
        val before = engine.latestEstimate
        val e = intercept[IllegalArgumentException](engine.processBatch(batch))
        assert(e.getMessage.contains(s"idx $first lies outside segment $t's window [${t * l}, ${(t + 1) * l})"),
          s"$name: ${e.getMessage}")
        assert(engine.result.perSegment.length == t, name)
        assert(engine.latestEstimate == before, name)
      }
      engine.processBatch(df.filter(col("idx") >= seg.start && col("idx") < seg.end)).get
    }
    assertLocalTrace(engine, steps, ds, query, 10L)
  }

  test("an empty segment changes nothing") {
    val df = SparkData.toDF(spark, ds)
    val engine = new StreamingInQuest(InQuestParams(), query, 2L)
    assert(engine.processBatch(df.filter(lit(false))).isEmpty)
    assert(engine.result.perSegment.isEmpty && engine.result.oracleCalls == 0)
    assert(engine.processBatch(df.filter(col("idx") < query.segmentLength)).isDefined)
    val local = new InQuest().run(StreamDataset("p", ds.proxy.take(query.segmentLength),
      ds.statistic.take(query.segmentLength), ds.predicate.take(query.segmentLength)), query, 2L)
    assert(engine.result.perSegment.toSeq == local.perSegment.toSeq)
  }
}
