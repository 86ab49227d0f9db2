package repro.util

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Checks.forAllSampled

class RngSpec extends AnyFunSuite {

  /** Unbiased (n−1) sample variance. */
  private def variance(xs: Seq[Double]): Double = {
    val m = Stats.mean(xs)
    xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1)
  }

  private val longs = Gen.chooseNum(Long.MinValue, Long.MaxValue)
  private val triple = for { s <- longs; i <- longs; t <- longs } yield (s, i, t)

  test("mix64 is deterministic") {
    assert(Rng.mix64(42L) == Rng.mix64(42L))
  }

  test("mix64 avalanche: flipping one input bit flips ~half the output bits") {
    val flips = (0 until 64).map { b =>
      java.lang.Long.bitCount(Rng.mix64(12345L) ^ Rng.mix64(12345L ^ (1L << b)))
    }
    val avg = flips.sum.toDouble / flips.size
    assert(avg > 24 && avg < 40, s"poor avalanche: avg flipped bits $avg")
  }

  test("uniform is in [0, 1) for arbitrary (seed, idx, tag)") {
    forAllSampled(triple, n = 500) { case (s, i, t) =>
      val u = Rng.uniform(s, i, t)
      assert(u >= 0.0 && u < 1.0, s"uniform($s,$i,$t)=$u out of range")
    }
  }

  test("uniform is a pure function of (seed, idx, tag)") {
    forAllSampled(triple, n = 200) { case (s, i, t) =>
      assert(Rng.uniform(s, i, t) == Rng.uniform(s, i, t))
    }
  }

  test("different tags decorrelate streams") {
    val a = (0 until 1000).map(i => Rng.uniform(1, i.toLong, tag = 1))
    val b = (0 until 1000).map(i => Rng.uniform(1, i.toLong, tag = 2))
    assert(math.abs(Stats.pearson(a, b)) < 0.1)
  }

  test("uniform has approximately uniform mean and variance") {
    val xs = (0 until 100000).map(i => Rng.uniform(7, i.toLong))
    assert(math.abs(Stats.mean(xs) - 0.5) < 0.01)
    assert(math.abs(variance(xs) - 1.0 / 12) < 0.01)
  }

  test("uniform histogram is flat across 10 bins") {
    val n = 100000
    val counts = new Array[Int](10)
    (0 until n).foreach(i => counts((Rng.uniform(3, i.toLong) * 10).toInt) += 1)
    counts.foreach(c => assert(math.abs(c - n / 10) < 500, s"bin count $c far from ${n / 10}"))
  }

  test("Seq generator is reproducible from its seed") {
    val a = new Rng.Seq(9); val b = new Rng.Seq(9)
    assert((0 until 100).map(_ => a.nextLong()) == (0 until 100).map(_ => b.nextLong()))
  }

  test("Seq generators with different seeds differ") {
    val a = new Rng.Seq(1); val b = new Rng.Seq(2)
    assert((0 until 10).map(_ => a.nextLong()) != (0 until 10).map(_ => b.nextLong()))
  }

  test("Seq uniform stays in [0,1)") {
    val rng = new Rng.Seq(21)
    (0 until 10000).foreach { _ =>
      val u = rng.nextUniform()
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("Poisson draws have the requested mean (small lambda)") {
    val rng = new Rng.Seq(13)
    val xs = (0 until 50000).map(_ => rng.nextPoisson(2.5).toDouble)
    assert(math.abs(Stats.mean(xs) - 2.5) < 0.05)
  }

  test("Poisson draws have the requested variance (small lambda)") {
    val rng = new Rng.Seq(14)
    val xs = (0 until 50000).map(_ => rng.nextPoisson(2.5).toDouble)
    assert(math.abs(variance(xs) - 2.5) < 0.1)
  }

  test("Poisson draws have the requested mean (large lambda, normal approx)") {
    val rng = new Rng.Seq(17)
    val xs = (0 until 20000).map(_ => rng.nextPoisson(50.0).toDouble)
    assert(math.abs(Stats.mean(xs) - 50.0) < 0.5)
  }

  test("Poisson of lambda 0 is 0; negative lambda rejected") {
    val rng = new Rng.Seq(1)
    assert(rng.nextPoisson(0.0) == 0)
    assertThrows[IllegalArgumentException](rng.nextPoisson(-1.0))
  }
}
