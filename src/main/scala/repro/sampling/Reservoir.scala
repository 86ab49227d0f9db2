package repro.sampling

import repro.util.Rng
import scala.collection.immutable.ArraySeq

/** Uniform-without-replacement sampling from a stream.
  *
  * InQuest needs, per segment × stratum, a sample "uniform in time" drawn
  * without knowing the stratum's size in advance (paper §3.1, reservoir
  * sampling). Over a *finished* segment a size-n reservoir is distributed
  * exactly as a uniform sample without replacement, so this reproduction
  * draws it as "the n records with the smallest `Rng.uniform(seed, idx)`"
  * — a pure function of (seed, idx) that the local and Catalyst engines
  * compute identically (DESIGN.md §6).
  */
object Reservoir {

  /** Deterministic uniform sample without replacement: the `n` indices of
    * `idxs` with the smallest hash-uniform, ties broken by index. Returns
    * sampled indices in ascending (stream) order.
    *
    * Both engines use this; `Rng.uniform(seed, idx, tag)` makes the chosen
    * set a pure function of the inputs.
    */
  def bottomN(idxs: Seq[Long], n: Int, seed: Long, tag: Long = 0L): ArraySeq[Long] = {
    val a = idxs match {
      case s: ArraySeq.ofLong => s.unsafeArray
      case s                  => s.toArray
    }
    ArraySeq.unsafeWrapArray(bottomN(a, n, seed, tag))
  }

  /** [[bottomN]] over a primitive array, which it does not modify: one
    * scan that keeps the `n` smallest `(u, idx)` pairs in a max-heap.
    */
  def bottomN(idxs: Array[Long], n: Int, seed: Long, tag: Long): Array[Long] = {
    require(n >= 0, s"sample size must be >= 0, got $n")
    if (n == 0) Array.emptyLongArray
    else if (idxs.length <= n) { val all = idxs.clone(); java.util.Arrays.sort(all); all }
    else {
      val salt = Rng.salt(seed, tag)
      val us = new Array[Double](n)
      val ids = new Array[Long](n)
      // Max-heap on (u, idx): does (u, i) order after (before) slot h?
      def after(u: Double, i: Long, h: Int): Boolean = u > us(h) || (u == us(h) && i > ids(h))
      def before(u: Double, i: Long, h: Int): Boolean = u < us(h) || (u == us(h) && i < ids(h))
      var size = 0
      var j = 0
      while (j < idxs.length) {
        val i = idxs(j)
        val u = Rng.uniformAt(salt, i)
        if (size < n) {
          var pos = size
          while (pos > 0 && after(u, i, (pos - 1) / 2)) {
            val parent = (pos - 1) / 2
            us(pos) = us(parent); ids(pos) = ids(parent); pos = parent
          }
          us(pos) = u; ids(pos) = i
          size += 1
        } else if (before(u, i, 0)) {
          // Replace the root and sift (u, i) down below every larger child.
          var pos = 0
          var c = 1
          while (c < n) {
            if (c + 1 < n && after(us(c + 1), ids(c + 1), c)) c += 1
            if (before(u, i, c)) {
              us(pos) = us(c); ids(pos) = ids(c); pos = c; c = 2 * pos + 1
            } else c = n
          }
          us(pos) = u; ids(pos) = i
        }
        j += 1
      }
      java.util.Arrays.sort(ids)
      ids
    }
  }
}
