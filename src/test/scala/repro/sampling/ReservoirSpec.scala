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
    // n for a population of `size`: the edges 0, 1, size−1, size, size+1,
    // or any value up to 320.
    def nFor(mode: Int, free: Int, size: Int): Int =
      math.max(0, Seq(0, 1, size - 1, size, size + 1, free)(mode))
    val gen = for {
      size <- Gen.chooseNum(0, 300)
      offset <- Gen.oneOf(Gen.chooseNum(0L, 1L << 40), Gen.chooseNum((1L << 40) - 600, (1L << 40) + 600))
      mode <- Gen.chooseNum(0, 5)
      free <- Gen.chooseNum(0, 320)
      seed <- Gen.chooseNum(Long.MinValue, Long.MaxValue)
      tag <- Gen.chooseNum(0L, 1000L)
    } yield (size, offset, mode, free, seed, tag)
    forAllSampled(gen, n = 600) { case (size, offset, mode, free, seed, tag) =>
      def bruteForce(idxs: Seq[Long], n: Int): Seq[Long] =
        idxs.sortBy(i => (Rng.uniform(seed, i, tag), i)).take(n).sorted
      val rnd = new scala.util.Random(seed)

      // An array, a sequence, and a union of parts, in any order.
      val idxs = rnd.shuffle((0 until size).map(i => offset + 7L * i))
      val n = nFor(mode, free, size)
      val expected = bruteForce(idxs, n)
      val arr = idxs.toArray
      val cuts = (Seq(0, size) ++ Seq.fill(rnd.nextInt(4))(rnd.nextInt(size + 1))).sorted
      val parts = cuts.zip(cuts.tail).map { case (a, b) => arr.slice(a, b) }.toArray
      val partsCopy = parts.map(_.clone)
      assert(Reservoir.bottomN(idxs, n, seed, tag) == expected)
      assert(Reservoir.bottomN(arr, n, seed, tag).toSeq == expected)
      assert(Reservoir.bottomNOfUnion(parts, n, seed, tag).toSeq == expected)
      assert(arr.toSeq == idxs && parts.indices.forall(p => parts(p).sameElements(partsCopy(p))))

      // The range `offset until offset + size`, and as a `NumericRange`.
      val range = offset until offset + size
      val expectedRange = bruteForce(range, n)
      assert(Reservoir.bottomNOfRange(offset, offset + size, n, seed, tag).toSeq == expectedRange)
      assert(Reservoir.bottomN(range, n, seed, tag) == expectedRange)

      // A sorted array less a subset, n counted on what remains.
      val sorted = arr.sorted
      val drop = sorted.filter(_ => rnd.nextInt(3) == 0)
      val kept = sorted.filterNot(drop.toSet)
      val nKept = nFor(mode, free, kept.length)
      val (sortedCopy, dropCopy) = (sorted.clone, drop.clone)
      assert(Reservoir.bottomNExcluding(sorted, drop, nKept, seed, tag).toSeq == bruteForce(kept.toSeq, nKept))
      assert(sorted.sameElements(sortedCopy) && drop.sameElements(dropCopy))
    }
  }

  test("a backward range and an exclusion that is not an ascending subset are rejected") {
    assertThrows[IllegalArgumentException](Reservoir.bottomNOfRange(5L, 3L, 1, 1, 0))
    val sorted = Array(1L, 3L, 5L, 7L)
    assertThrows[IllegalArgumentException](Reservoir.bottomNExcluding(sorted, sorted :+ 9L, 2, 1, 0))
    assertThrows[IllegalArgumentException](Reservoir.bottomNExcluding(sorted, Array(4L), 2, 1, 0))
    assertThrows[IllegalArgumentException](Reservoir.bottomNExcluding(sorted, Array(5L, 3L), 2, 1, 0))
    assertThrows[IllegalArgumentException](Reservoir.bottomNExcluding(sorted, Array(3L, 3L), 2, 1, 0))
  }

  test("negative sample sizes are rejected") {
    assertThrows[IllegalArgumentException](Reservoir.bottomN(0L until 10L, -1, 1))
    assertThrows[IllegalArgumentException](Reservoir.bottomN(Array(1L, 2L), -1, 1, 0))
    assertThrows[IllegalArgumentException](Reservoir.bottomNOfRange(0L, 10L, -1, 1, 0))
    assertThrows[IllegalArgumentException](Reservoir.bottomNOfUnion(Array(Array(1L)), -1, 1, 0))
    assertThrows[IllegalArgumentException](Reservoir.bottomNExcluding(Array(1L), Array.emptyLongArray, -1, 1, 0))
  }
}
