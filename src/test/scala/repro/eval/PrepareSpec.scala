package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.abae.ABae
import repro.baselines.{FixedStratified, UniformSampling}
import repro.core._
import repro.data.StreamGen

/** One plan serves every trial: `prepare` once and reuse the trial
  * function, and each seed's result equals a fresh `run` bit for bit.
  */
class PrepareSpec extends AnyFunSuite {

  private def bits(r: RunResult): (Seq[Long], Long, Long) = (
    r.perSegment.toSeq.map(java.lang.Double.doubleToRawLongBits),
    java.lang.Double.doubleToRawLongBits(r.finalEstimate),
    r.oracleCalls)

  /** The four algorithms of `Algorithms.All`, built under `params`. */
  private def algorithms(params: InQuestParams): Seq[() => StreamAlgorithm] = Seq(
    () => new UniformSampling, () => new FixedStratified(params.k), () => new ABae(params.k),
    () => new InQuest(params))

  private def assertReusable(ds: StreamDataset, q: QueryConfig, params: InQuestParams): Unit =
    algorithms(params).foreach { algo =>
      val trial = algo().prepare(ds, q)
      (1L to 20L).foreach { seed =>
        assert(bits(trial(seed)) == bits(algo().run(ds, q, seed)),
          s"${algo().getClass.getSimpleName} seed $seed")
      }
    }

  test("a reused plan equals a fresh run per seed, with a short final segment") {
    val ds = StreamGen.videoLike("short", 5300, 0.5, 0.9, seed = 17)
    val q = QueryConfig(AggFunc.Avg, usePredicate = true, segmentLength = 1200, budgetPerSegment = 60)
    assertReusable(ds, q, InQuestParams())
  }

  test("a reused plan equals a fresh run per seed, on constant proxies with K = 4") {
    val proxy = Array.fill(4000)(0.5)
    val stat = Array.tabulate(4000)(i => (i % 13).toDouble)
    val ds = StreamDataset("const", proxy, stat, stat.map(_ > 3))
    val q = QueryConfig(AggFunc.Avg, usePredicate = true, segmentLength = 1000, budgetPerSegment = 40)
    assertReusable(ds, q, InQuestParams(k = 4))
  }
}
