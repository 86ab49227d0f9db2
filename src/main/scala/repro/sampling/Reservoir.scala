package repro.sampling

import repro.util.Rng
import scala.collection.immutable.{ArraySeq, NumericRange}

/** Uniform-without-replacement sampling from a stream.
  *
  * InQuest needs, per segment × stratum, a sample "uniform in time" drawn
  * without knowing the stratum's size in advance (paper §3.1, reservoir
  * sampling). Over a *finished* segment a size-n reservoir is distributed
  * exactly as a uniform sample without replacement, so this reproduction
  * draws it as "the n records with the smallest `Rng.uniform(seed, idx)`"
  * — a pure function of (seed, idx) that the local and Catalyst engines
  * compute identically (DESIGN.md §6).
  *
  * Every draw runs one kernel that keeps the `n` smallest
  * `(Rng.keyAt(salt, idx), idx)` pairs. The key is the uniform's 53-bit
  * integer numerator, so pairs order exactly as `(uniform, idx)` do. The
  * inputs are the records' indices, which must be distinct, given as an
  * array, a range, a union of arrays, or a sorted array less a subset.
  * Each draw returns the sampled indices in ascending (stream) order and
  * modifies none of its inputs.
  */
object Reservoir {

  /** The `n` indices of `idxs` with the smallest hash-uniform, ties broken
    * by index, as a sequence. A step-1 `NumericRange` is drawn as
    * [[bottomNOfRange]], without materializing it.
    */
  def bottomN(idxs: Seq[Long], n: Int, seed: Long, tag: Long = 0L): ArraySeq[Long] = {
    val sample = idxs match {
      case r: NumericRange[Long] if r.step == 1L => bottomNOfRange(r.start, r.start + r.length, n, seed, tag)
      case s: ArraySeq.ofLong => bottomN(s.unsafeArray, n, seed, tag)
      case s => bottomN(s.toArray, n, seed, tag)
    }
    ArraySeq.unsafeWrapArray(sample)
  }

  /** The `n` indices of `idxs`, in any order, with the smallest
    * hash-uniform, ties broken by index.
    */
  def bottomN(idxs: Array[Long], n: Int, seed: Long, tag: Long): Array[Long] = {
    val k = new Kernel(n, idxs.length, seed, tag)
    k.scan(idxs, 0, idxs.length)
    k.result
  }

  /** [[bottomN]] over the indices `from until until`. */
  def bottomNOfRange(from: Long, until: Long, n: Int, seed: Long, tag: Long): Array[Long] = {
    val k = new Kernel(n, until - from, seed, tag)
    k.scanRange(from, until)
    k.result
  }

  /** [[bottomN]] over the union of `parts`, which are disjoint. */
  def bottomNOfUnion(parts: Array[Array[Long]], n: Int, seed: Long, tag: Long): Array[Long] = {
    val k = new Kernel(n, parts.iterator.map(_.length.toLong).sum, seed, tag)
    parts.foreach(p => k.scan(p, 0, p.length))
    k.result
  }

  /** [[bottomN]] over `sorted` less the records of `drop`: both ascending,
    * `drop` a subset of `sorted`. Scans the runs between the dropped records
    * in place.
    */
  def bottomNExcluding(sorted: Array[Long], drop: Array[Long], n: Int, seed: Long, tag: Long): Array[Long] = {
    val k = new Kernel(n, sorted.length.toLong - drop.length, seed, tag)
    var from = 0
    drop.foreach { d =>
      val at = java.util.Arrays.binarySearch(sorted, from, sorted.length, d)
      require(at >= 0, s"excluded idx $d is not among the remaining sorted indices")
      k.scan(sorted, from, at)
      from = at + 1
    }
    k.scan(sorted, from, sorted.length)
    k.result
  }

  /** Does `(key, idx)` order before `(key2, idx2)`? */
  private def before(key: Long, idx: Long, key2: Long, idx2: Long): Boolean =
    key < key2 || (key == key2 && idx < idx2)

  /** The bottom-n kernel over a population of `population` records: a
    * max-heap of the `min(n, population)` smallest `(key, idx)` pairs seen.
    * The scans keep the root's pair in locals, so a record that does not
    * enter costs its hash and one compare; only a record that enters calls
    * [[offer]].
    */
  private final class Kernel(n: Int, population: Long, seed: Long, tag: Long) {
    require(n >= 0, s"sample size must be >= 0, got $n")
    require(population >= 0,
      s"population must be >= 0, got $population: a range that ends before it starts, or more excluded than kept")
    private val capacity = math.min(n.toLong, population).toInt
    private val salt = Rng.salt(seed, tag)
    private val keys = new Array[Long](capacity)
    private val ids = new Array[Long](capacity)
    private var size = 0
    // The root's pair, which a record must order before to enter. Keys are
    // non-negative, so until the heap is full every record enters, and with
    // no capacity none does.
    private var rootKey = if (capacity == 0) -1L else Long.MaxValue
    private var rootIdx = Long.MaxValue

    def scan(idxs: Array[Long], from: Int, until: Int): Unit = {
      var rk = rootKey
      var ri = rootIdx
      var j = from
      while (j < until) {
        val i = idxs(j)
        val key = Rng.keyAt(salt, i)
        if (key <= rk && (key < rk || i < ri)) { offer(key, i); rk = rootKey; ri = rootIdx }
        j += 1
      }
    }

    def scanRange(from: Long, until: Long): Unit = {
      var rk = rootKey
      var ri = rootIdx
      var i = from
      while (i < until) {
        val key = Rng.keyAt(salt, i)
        if (key <= rk && (key < rk || i < ri)) { offer(key, i); rk = rootKey; ri = rootIdx }
        i += 1
      }
    }

    /** Insert `(key, idx)`, which orders before the root: sift it up while
      * the heap fills, else replace the root and sift it down.
      */
    private def offer(key: Long, idx: Long): Unit = {
      var pos = 0
      if (size < capacity) {
        pos = size
        size += 1
        var parent = (pos - 1) / 2
        while (pos > 0 && before(keys(parent), ids(parent), key, idx)) {
          keys(pos) = keys(parent); ids(pos) = ids(parent); pos = parent; parent = (pos - 1) / 2
        }
      } else {
        var c = 1
        while (c < capacity) {
          if (c + 1 < capacity && before(keys(c), ids(c), keys(c + 1), ids(c + 1))) c += 1
          if (before(key, idx, keys(c), ids(c))) {
            keys(pos) = keys(c); ids(pos) = ids(c); pos = c; c = 2 * pos + 1
          } else c = capacity
        }
      }
      keys(pos) = key; ids(pos) = idx
      if (size == capacity) { rootKey = keys(0); rootIdx = ids(0) }
    }

    /** The heap's indices in ascending order; the kernel is spent. */
    def result: Array[Long] = {
      java.util.Arrays.sort(ids)
      ids
    }
  }
}
