package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, SparkSpec}
import repro.data.StreamGen
import repro.testkit.{Checks, SparkData}
import repro.util.Rng
import scala.collection.immutable.ArraySeq

class TypesSpec extends SparkSpec {

  private def tinyDs = StreamGen.videoLike("tiny", 3000, targetP = 0.5, targetR = 0.9, seed = 3)

  test("segments tile the stream exactly") {
    val ds = tinyDs
    val segs = ds.segments(1000)
    assert(segs.size == 3)
    assert(segs.flatten == (0 until 3000))
  }

  test("last segment may be short") {
    val ds = tinyDs
    val segs = ds.segments(1100)
    assert(segs.size == 3)
    assert(segs.last.size == 800)
    assert(segs.flatten == (0 until 3000))
  }

  test("segment length must be positive") {
    assertThrows[IllegalArgumentException](tinyDs.segments(0))
  }

  test("ragged parallel arrays are rejected") {
    assertThrows[IllegalArgumentException](
      StreamDataset("bad", Array(0.1), Array(1.0, 2.0), Array(true)))
  }

  test("non-finite proxies are rejected, naming the first bad idx") {
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { bad =>
      val e = intercept[IllegalArgumentException](
        StreamDataset("bad", Array(0.1, 0.2, bad, bad), Array.fill(4)(1.0), Array.fill(4)(true)))
      assert(e.getMessage.contains(s"non-finite proxy $bad at idx 2"), e.getMessage)
    }
  }

  test("truthPerSegment AVG without predicate matches DuckDB") {
    val ds = tinyDs
    val truths = ds.truthPerSegment(1000, usePredicate = false)
    val sparkDf = SparkData.toDF(spark, ds)
      .groupBy(floor(col("idx") / 1000).cast("int") as "seg")
      .agg(avg(col("statistic")) as "mu")
      .select(col("seg"), col("mu"))
    // DuckDB recomputes the same per-segment means from the raw records.
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT CAST(FLOOR(CAST(idx AS DOUBLE) / 1000) AS INT) AS seg,
        |       avg(CAST(statistic AS DOUBLE)) AS mu
        |FROM records GROUP BY 1""".stripMargin,
      "records" -> SparkData.toDF(spark, ds))
    // And the local ground-truth helper agrees with the Spark aggregation.
    val bySegment = sparkDf.collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    truths.zipWithIndex.foreach { case (t, i) => assert(math.abs(t - bySegment(i)) < 1e-9) }
  }

  test("truthPerSegment AVG with predicate matches DuckDB") {
    val ds = tinyDs
    val truths = ds.truthPerSegment(1000, usePredicate = true)
    val sparkDf = SparkData.toDF(spark, ds)
      .filter(col("predicate"))
      .groupBy(floor(col("idx") / 1000).cast("int") as "seg")
      .agg(avg(col("statistic")) as "mu")
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT CAST(FLOOR(CAST(idx AS DOUBLE) / 1000) AS INT) AS seg,
        |       avg(CAST(statistic AS DOUBLE)) AS mu
        |FROM records WHERE predicate = 'true' GROUP BY 1""".stripMargin,
      "records" -> SparkData.toDF(spark, ds))
    val bySegment = sparkDf.collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
    truths.zipWithIndex.foreach { case (t, i) => assert(math.abs(t - bySegment(i)) < 1e-9) }
  }

  test("truthPerSegment SUM and COUNT agree with direct computation") {
    val ds = tinyDs
    val sums = ds.truthPerSegment(1000, usePredicate = true, AggFunc.Sum)
    val counts = ds.truthPerSegment(1000, usePredicate = true, AggFunc.Count)
    ds.segments(1000).zipWithIndex.foreach { case (seg, t) =>
      val pos = seg.filter(ds.predicate)
      assert(math.abs(sums(t) - pos.map(ds.statistic).sum) < 1e-9)
      assert(counts(t) == pos.size.toDouble)
    }
  }

  test("truthOverall equals the weighted combination of segment truths") {
    val ds = tinyDs
    val truth = ds.truthOverall(usePredicate = true)
    val matching = (0 until ds.length).filter(ds.predicate)
    assert(math.abs(truth - matching.map(ds.statistic).sum / matching.size) < 1e-9)
  }

  test("truth helpers on a no-matching-records stream return 0 for AVG") {
    val ds = StreamDataset("none", Array(0.1, 0.2), Array(1.0, 2.0), Array(false, false))
    assert(ds.truthPerSegment(2, usePredicate = true).toSeq == Seq(0.0))
    assert(ds.truthOverall(usePredicate = true) == 0.0)
  }

  test("truthPerSegment and truthOverall equal the boxed census fold bit for bit") {
    // Four segments of 1000: the generated stream, its counts made
    // non-integer so that the summation order shows in the last bits; one
    // whose only match is -0.0; one with no matches; one whose statistics
    // are all -0.0.
    val base = tinyDs
    val n = 4000
    val statistic = Array.tabulate(n) { i =>
      if (i == 1500 || i >= 3000) -0.0 else base.statistic(i % 3000) / 3 + Rng.uniform(9, i.toLong)
    }
    val predicate = Array.tabulate(n) { i =>
      if (i < 1000 || i >= 3000) base.predicate(i % 3000) else i == 1500
    }
    val ds = StreamDataset("census", Array.tabulate(n)(i => base.proxy(i % 3000)), statistic, predicate)
    def reference(records: Range, usePredicate: Boolean, agg: AggFunc): Double = {
      val c = StratumStats.fromSamples(records.size,
        records.map(i => (ds.statistic(i), !usePredicate || ds.predicate(i))))
      agg match {
        case AggFunc.Avg   => c.muHat
        case AggFunc.Sum   => c.sumF
        case AggFunc.Count => c.nPos.toDouble
      }
    }
    def bits(xs: Seq[Double]) = xs.map(java.lang.Double.doubleToRawLongBits)
    for (agg <- Seq(AggFunc.Avg, AggFunc.Sum, AggFunc.Count); usePredicate <- Seq(true, false)) {
      val perSegment = ds.truthPerSegment(1000, usePredicate, agg).toSeq
      assert(bits(perSegment) == bits(ds.segments(1000).map(reference(_, usePredicate, agg))), s"$agg $usePredicate")
      assert(bits(Seq(ds.truthOverall(usePredicate, agg))) == bits(Seq(reference(0 until n, usePredicate, agg))),
        s"$agg $usePredicate")
    }
    // The edge segments are what the test says they are.
    assert(bits(ds.truthPerSegment(1000, usePredicate = true, AggFunc.Sum).toSeq.slice(1, 3)) == bits(Seq(-0.0, 0.0)))
    assert(ds.truthPerSegment(1000, usePredicate = true, AggFunc.Count).toSeq.slice(1, 3) == Seq(1.0, 0.0))
  }

  test("StratumStats pHat, muHat, varHat match hand computation") {
    val s = StratumStats.fromSamples(100, Seq((2.0, true), (4.0, true), (6.0, true), (9.0, false)))
    assert(s.pHat == 0.75)
    assert(s.muHat == 4.0)
    assert(math.abs(s.varHat - 4.0) < 1e-12)
    assert(math.abs(s.stdHat - 2.0) < 1e-12)
  }

  test("StratumStats guards: empty and single-positive cells") {
    val empty = StratumStats.fromSamples(10, Seq.empty)
    assert(empty.pHat == 0.0 && empty.muHat == 0.0 && empty.varHat == 0.0)
    val one = StratumStats.fromSamples(10, Seq((5.0, true)))
    assert(one.muHat == 5.0 && one.varHat == 0.0)
  }

  test("StratumStats.fromSamples equals the collect-and-sum fold bit for bit") {
    def reference(sizeD: Long, obs: Seq[(Double, Boolean)]): StratumStats = {
      val pos = obs.collect { case (f, true) => f }
      StratumStats(sizeD, obs.size, pos.size, pos.sum, pos.map(f => f * f).sum)
    }
    def bits(s: StratumStats) = (s.sizeD, s.nSampled, s.nPos,
      java.lang.Double.doubleToRawLongBits(s.sumF), java.lang.Double.doubleToRawLongBits(s.sumSqF))
    val value = Gen.frequency(3 -> Gen.choose(-1e6, 1e6), 1 -> Gen.oneOf(-0.0, 0.0, 1.0, 1e16, -1e16, 1e-300))
    val obs = Gen.listOf(Gen.zip(value, Gen.oneOf(true, false)))
    val edge = Seq(Nil, Seq((-0.0, true)), Seq((-0.0, true), (-0.0, true)), Seq((-0.0, true), (2.5, true)),
      Seq((-0.0, false), (-0.0, true)), Seq((1.0, false), (2.0, false)), Seq((1e16, true), (1.0, true), (-1e16, true)))
    (edge ++ Checks.samples(obs, n = 500)).foreach { o =>
      Seq(o.toVector, ArraySeq.from(o)).foreach { seq =>
        assert(bits(StratumStats.fromSamples(7, seq)) == bits(reference(7, seq)), s"on $seq")
      }
    }
  }

  test("QueryConfig validates its fields") {
    assertThrows[IllegalArgumentException](QueryConfig(segmentLength = 0))
    assertThrows[IllegalArgumentException](QueryConfig(budgetPerSegment = 0))
  }
}
