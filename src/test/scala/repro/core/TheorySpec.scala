package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.{Rng, Stats}

/** Monte-Carlo checks of the paper's theoretical claims (Section 4) on
  * stationary streams: Proposition 1 (the closed-form allocation is
  * optimal), Theorem 1 (InQuest's allocation approaches it over time) and
  * Theorem 2 (MSE decays like 1/N).
  */
class TheorySpec extends AnyFunSuite {

  /** A stationary 3-strata stream where the proxy identifies the stratum
    * perfectly, with per-stratum (p, σ, μ) constant over time.
    */
  private def stationaryStream(n: Int, p: Array[Double], sigma: Array[Double],
                               mu: Array[Double], seed: Long): StreamDataset = {
    val k = p.length
    val rng = new Rng.Seq(seed, tag = 0x57A7L)
    val proxy = new Array[Double](n)
    val g = new Array[Double](n)
    val o = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      val s = (rng.nextUniform() * k).toInt.min(k - 1)
      proxy(i) = (s + rng.nextUniform()) / k // stratum-revealing proxy
      g(i) = mu(s) + sigma(s) * rng.nextGaussian()
      o(i) = rng.nextUniform() < p(s)
      i += 1
    }
    StreamDataset("stationary", proxy, g, o)
  }

  private val p = Array(0.9, 0.5, 0.2)
  private val sigma = Array(0.5, 2.0, 4.0)
  private val mu = Array(1.0, 5.0, 9.0)

  test("Proposition 1: a* beats perturbed allocations in empirical MSE") {
    val n = 30000
    val ds = stationaryStream(n, p, sigma, mu, seed = 51)
    val boundaries = Array(1.0 / 3, 2.0 / 3)
    val strata = Stratification.split(ds, 0 until n, boundaries)
    val sizes = strata.map(_.size.toLong)
    val aStar = Allocation.optimal(sizes, p, sigma)
    val truth = ds.truthOverall(usePredicate = true)

    def mseWith(alloc: Array[Double], trials: Int = 400, budget: Int = 300): Double = {
      val errs = (1 to trials).map { t =>
        val counts = Stats.largestRemainder(alloc, budget)
        val cells = (0 until 3).map { s =>
          val sampled = repro.sampling.Reservoir.bottomN(strata(s), counts(s), t.toLong, tag = 77)
          StratumStats.fromSamples(sizes(s),
            sampled.map(i => (ds.statistic(i.toInt), ds.predicate(i.toInt))))
        }
        Estimator.estimate(cells, AggFunc.Avg) - truth
      }
      errs.map(e => e * e).sum / errs.size
    }

    val optimalMse = mseWith(aStar)
    // uniform allocation and an inverted allocation must both be worse
    assert(optimalMse < mseWith(Array(1.0 / 3, 1.0 / 3, 1.0 / 3)) * 1.05,
      "a* not better than uniform allocation")
    assert(optimalMse < mseWith(aStar.reverse) * 1.05, "a* not better than inverted a*")
  }

  test("Theorem 1 direction: InQuest's allocation approaches a* over segments") {
    val n = 60000
    val ds = stationaryStream(n, p, sigma, mu, seed = 52)
    val segLen = 6000
    val query = QueryConfig(AggFunc.Avg, usePredicate = true, segLen, budgetPerSegment = 200)
    // alpha = 0: unweighted history, the setting of the theorem
    val params = InQuestParams(alpha = 0.0)

    // a* for the quantile strata InQuest converges to (equal thirds here)
    val strata = Stratification.split(ds, 0 until n, Array(1.0 / 3, 2.0 / 3))
    val aStar = Allocation.optimal(strata.map(_.size.toLong), p, sigma)

    val traced = new InQuest(params).prepareTraced(ds, query)
    val trials = (1 to 60).map(s => traced(s.toLong)._1)
    def allocError(t: Int): Double = Stats.mean(trials.map { tr =>
      val c = tr(t).cells.map(_.nSampled.toDouble)
      val a = c.map(_ / c.sum)
      a.zip(aStar).map { case (x, y) => val d = x - y; d * d }.sum // Σ (x−y)²
    })
    val early = allocError(1) // the first post-pilot segment
    val late = allocError(trials.head.size - 1)
    assert(late < early * 1.1,
      s"allocation error grew over time: early=$early late=$late")
    // and the final allocation is meaningfully close to optimal
    assert(late < 0.05, s"late allocation error $late too large")
  }

  test("Theorem 2: MSE decays roughly like 1/N on a stationary stream") {
    val n = 40000
    val ds = stationaryStream(n, p, sigma, mu, seed = 53)
    val segLen = 8000
    val truths = ds.truthPerSegment(segLen, usePredicate = true)

    def mse(budget: Int): Double = {
      val errs = (1 to 100).flatMap { s =>
        val r = new InQuest(InQuestParams(alpha = 0.0)).run(ds,
          QueryConfig(AggFunc.Avg, usePredicate = true, segLen, budget), s.toLong)
        // skip the pilot segment: the theorem is about post-pilot segments
        r.perSegment.drop(1).zip(truths.drop(1)).map { case (e, t) => (e - t) * (e - t) }
      }
      errs.sum / errs.size
    }

    val m100 = mse(100)
    val m400 = mse(400)
    val ratio = m100 / m400
    // 1/N predicts 4.0; accept a generous band around it
    assert(ratio > 2.0 && ratio < 8.0, s"MSE ratio $ratio far from the 1/N prediction (4.0)")
  }

  test("defensive sampling prevents catastrophic under-allocation (§3.2)") {
    // Stratum 2's variance signal vanishes in the pilot (constant values),
    // then matters later. Without defensive samples the stratum would be
    // starved; with them InQuest keeps sampling it.
    val nSeg = 6; val segLen = 5000; val n = nSeg * segLen
    val rng = new Rng.Seq(99)
    val proxy = new Array[Double](n)
    val g = new Array[Double](n)
    var i = 0
    while (i < n) {
      val s = (rng.nextUniform() * 2).toInt
      proxy(i) = (s + rng.nextUniform()) / 2
      // stratum 1 is constant during the first two segments, then volatile
      g(i) = if (s == 0) rng.nextGaussian()
             else if (i < 2 * segLen) 5.0
             else 5.0 + 4.0 * rng.nextGaussian()
      i += 1
    }
    val ds = StreamDataset("lesion", proxy, g, Array.fill(n)(true))
    val query = QueryConfig(AggFunc.Avg, usePredicate = false, segLen, budgetPerSegment = 100)

    val withDef = new InQuest(InQuestParams(k = 2, defensiveFraction = 0.1))
      .prepareTraced(ds, query)(3)._1
    // every post-pilot segment keeps at least N1/K samples in stratum 1
    withDef.tail.foreach(s => assert(s.cells(1).nSampled >= 5, s"starved: ${s.cells.map(_.nSampled)}"))

    val noDef = new InQuest(InQuestParams(k = 2, defensiveFraction = 0.0))
      .prepareTraced(ds, query)(3)._1
    // without defense, the constant early segments drive stratum 1 to ~0
    val second = noDef(2).cells.map(_.nSampled) // the second post-pilot segment
    assert(second(1) <= 2, s"expected starvation without defense: $second")
  }
}
