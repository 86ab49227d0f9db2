package repro.core

import java.lang.Double.doubleToLongBits
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, SparkSpec}
import repro.testkit.Checks.forAllSampled

class EstimatorSpec extends SparkSpec {

  private val cells = Seq(
    StratumStats.fromSamples(100, Seq((2.0, true), (4.0, true))),              // p̂=1,   μ̂=3
    StratumStats.fromSamples(200, Seq((10.0, true), (0.0, false))),            // p̂=0.5, μ̂=10
    StratumStats.fromSamples(300, Seq((0.0, false), (0.0, false))),            // p̂=0,   μ̂=0
  )

  test("AVG estimate is the p̂|D|-weighted mean of stratum means") {
    // weights: 100, 100, 0 → (3·100 + 10·100)/200 = 6.5
    assert(math.abs(Estimator.estimate(cells, AggFunc.Avg) - 6.5) < 1e-12)
  }

  test("SUM estimate is the unnormalized weighted sum") {
    assert(math.abs(Estimator.estimate(cells, AggFunc.Sum) - 1300.0) < 1e-12)
  }

  test("COUNT estimate is the total estimated matching count") {
    assert(math.abs(Estimator.estimate(cells, AggFunc.Count) - 200.0) < 1e-12)
  }

  test("AVG estimate of all-empty cells is 0 (no divide-by-zero)") {
    val empty = Seq(StratumStats(100, 0, 0, 0, 0))
    assert(Estimator.estimate(empty, AggFunc.Avg) == 0.0)
  }

  test("estimate over the flattened cells pools cells across segments") {
    val seg1 = Seq(StratumStats.fromSamples(100, Seq((1.0, true))))
    val seg2 = Seq(StratumStats.fromSamples(100, Seq((3.0, true))))
    // equal weights → mean of 1 and 3
    assert(math.abs(Estimator.estimate(Seq(seg1, seg2).flatten, AggFunc.Avg) - 2.0) < 1e-12)
  }

  test("estimate over a Vector equals the Seq.sum form bit for bit, −0.0 included") {
    val value = Gen.frequency(3 -> Gen.chooseNum(-50.0, 50.0), 1 -> Gen.const(-0.0))
    val cell = Gen.zip(Gen.chooseNum(0L, 1000L), Gen.listOf(Gen.zip(value, Gen.oneOf(true, false))))
      .map { case (sizeD, obs) => StratumStats.fromSamples(sizeD, obs.take(12)) }
    val gen = Gen.zip(Gen.listOf(cell).map(_.take(8).toVector), Gen.oneOf(AggFunc.Avg, AggFunc.Sum, AggFunc.Count))
    forAllSampled(gen, n = 300) { case (cs, agg) =>
      val weighted = cs.map(c => (c.muHat, c.pHat * c.sizeD))
      val reference = agg match {
        case AggFunc.Avg =>
          val den = weighted.map(_._2).sum
          if (den <= 0) 0.0 else weighted.map { case (m, w) => m * w }.sum / den
        case AggFunc.Sum   => weighted.map { case (m, w) => m * w }.sum
        case AggFunc.Count => weighted.map(_._2).sum
      }
      assert(doubleToLongBits(Estimator.estimate(cs, agg)) == doubleToLongBits(reference), s"$agg $cs")
    }
  }

  test("single full-coverage cell recovers the exact answer") {
    val obs = Seq((1.0, true), (2.0, true), (3.0, true))
    val c = StratumStats.fromSamples(3, obs)
    assert(Estimator.estimate(Seq(c), AggFunc.Avg) == 2.0)
    assert(Estimator.estimate(Seq(c), AggFunc.Sum) == 6.0)
    assert(Estimator.estimate(Seq(c), AggFunc.Count) == 3.0)
  }

  test("stratified weighted AVG matches an equivalent SQL computation on DuckDB") {
    import spark.implicits._
    // Samples table: (stratum, f, matches); sizes table: (stratum, sizeD).
    val samples = Seq(
      (0, 2.0, true), (0, 4.0, true),
      (1, 10.0, true), (1, 0.0, false),
      (2, 0.0, false), (2, 0.0, false),
    ).toDF("stratum", "f", "matches")
    val sizes = Seq((0, 100L), (1, 200L), (2, 300L)).toDF("stratum", "sizeD")

    val sparkDf = samples
      .groupBy($"stratum")
      .agg(
        (count(when($"matches", 1)) / count(lit(1))) as "pHat",
        coalesce(avg(when($"matches", $"f")), lit(0.0)) as "muHat",
      )
      .join(sizes, "stratum")
      .agg((sum($"muHat" * $"pHat" * $"sizeD") / sum($"pHat" * $"sizeD")) as "estimate")

    Oracle.assertEquivalent(
      sparkDf,
      """WITH per_stratum AS (
        |  SELECT s.stratum,
        |         CAST(count(CASE WHEN s.matches = 'true' THEN 1 END) AS DOUBLE)
        |           / count(*) AS pHat,
        |         coalesce(avg(CASE WHEN s.matches = 'true'
        |                           THEN CAST(s.f AS DOUBLE) END), 0.0) AS muHat,
        |         CAST(any_value(z.sizeD) AS DOUBLE) AS sizeD
        |  FROM samples s JOIN sizes z ON s.stratum = z.stratum
        |  GROUP BY s.stratum)
        |SELECT sum(muHat * pHat * sizeD) / sum(pHat * sizeD) AS estimate
        |FROM per_stratum""".stripMargin,
      "samples" -> samples, "sizes" -> sizes)

    // and both agree with Estimator.estimate on the same cells
    val est = sparkDf.head().getDouble(0)
    assert(math.abs(est - Estimator.estimate(cells, AggFunc.Avg)) < 1e-9)
  }
}
