package repro.sampling

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Checks.forAllSampled
import repro.util.{Rng, Stats}

class ReservoirSpec extends AnyFunSuite {

  test("bottomN returns n distinct indices in ascending order") {
    forAllSampled(Gen.chooseNum(1L, 1000L), n = 50) { seed =>
      val s = Reservoir.bottomN(0L until 500L, 50, seed)
      assert(s.size == 50)
      assert(s.distinct.size == 50)
      assert(s == s.sorted)
      assert(s.forall(i => i >= 0 && i < 500))
    }
  }

  test("bottomN with n >= population returns everything") {
    assert(Reservoir.bottomN(Seq(5L, 3L, 9L), 10, 1) == Vector(3L, 5L, 9L))
  }

  test("bottomN with n=0 is empty") {
    assert(Reservoir.bottomN(0L until 100L, 0, 1).isEmpty)
  }

  test("bottomN is deterministic in (seed, tag)") {
    val a = Reservoir.bottomN(0L until 1000L, 30, 5, tag = 2)
    val b = Reservoir.bottomN(0L until 1000L, 30, 5, tag = 2)
    assert(a == b)
    assert(a != Reservoir.bottomN(0L until 1000L, 30, 5, tag = 3))
    assert(a != Reservoir.bottomN(0L until 1000L, 30, 6, tag = 2))
  }

  test("bottomN is order-insensitive in its input index collection") {
    val idxs = (0L until 300L)
    val a = Reservoir.bottomN(idxs, 25, 9)
    val b = Reservoir.bottomN(scala.util.Random.shuffle(idxs.toVector), 25, 9)
    assert(a == b)
  }

  test("bottomN inclusion probability is uniform") {
    val n = 100; val k = 10; val trials = 20000
    val counts = new Array[Int](n)
    (0 until trials).foreach { t =>
      Reservoir.bottomN(0L until n.toLong, k, t.toLong).foreach(i => counts(i.toInt) += 1)
    }
    val expected = trials * k.toDouble / n
    counts.foreach(c => assert(math.abs(c - expected) < 5 * math.sqrt(expected * 0.9)))
  }

  test("bottomN sample mean is an unbiased estimate of the population mean") {
    val pop = (0 until 1000).map(i => repro.util.Rng.uniform(99, i.toLong) * 10)
    val means = (0 until 2000).map { t =>
      Stats.mean(Reservoir.bottomN(0L until 1000L, 20, t.toLong).map(i => pop(i.toInt)))
    }
    assert(math.abs(Stats.mean(means) - Stats.mean(pop)) < 0.05)
  }

  test("bottomN equals its brute-force definition") {
    val gen = for {
      size <- Gen.chooseNum(0, 300)
      offset <- Gen.chooseNum(0L, 1L << 40)
      n <- Gen.chooseNum(0, 320)
      seed <- Gen.chooseNum(Long.MinValue, Long.MaxValue)
      tag <- Gen.chooseNum(0L, 1000L)
    } yield ((0 until size).map(i => offset + 7L * i), n, seed, tag)
    forAllSampled(gen, n = 600) { case (idxs, n, seed, tag) =>
      val expected = idxs.sortBy(i => (Rng.uniform(seed, i, tag), i)).take(n).sorted
      val shuffled = scala.util.Random.shuffle(idxs)
      assert(Reservoir.bottomN(shuffled, n, seed, tag) == expected)
      assert(Reservoir.bottomN(shuffled.toArray, n, seed, tag).toSeq == expected)
    }
  }

  test("negative sample sizes are rejected") {
    assertThrows[IllegalArgumentException](Reservoir.bottomN(0L until 10L, -1, 1))
  }
}
