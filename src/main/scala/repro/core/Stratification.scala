package repro.core

import repro.util.Stats
import scala.collection.immutable.ArraySeq

/** GetStrata (Algorithm 2): proxy-quantile stratification smoothed by an
  * EWMA over the segment history.
  */
object Stratification {

  /** Boundaries splitting `proxies` into K equal-count strata (the K−1
    * interior quantiles) — `StratifyByQuantile(P(D_{t−1}), K)`.
    */
  def quantileStrata(proxies: Seq[Double], k: Int): Array[Double] =
    Stats.quantileBoundaries(proxies, k)

  /** `Ŝ_t = EWMA({S_1 … S_{t−1}}, α)` — element-wise over the boundary
    * vectors, oldest first. Boundaries stay sorted because each input
    * vector is sorted and EWMA is a convex combination.
    */
  def smooth(history: Seq[Array[Double]], alpha: Double): Array[Double] =
    Stats.ewmaVec(history, alpha)

  /** Stratum of a record given interior boundaries (half-open intervals). */
  def assign(proxy: Double, boundaries: Array[Double]): Int =
    Stats.stratumOf(proxy, boundaries)

  /** Partition a segment's records into K strata by proxy score: the
    * record indices per stratum, in the order of `idx`. `idx` and `proxy`
    * are parallel.
    */
  def split(idx: Array[Long], proxy: Array[Double], boundaries: Array[Double]): Array[Array[Long]] =
    splitBy(idx.length, idx(_), proxy(_), boundaries)

  /** [[split]] over the records of `segment` of `ds`, without copying them. */
  def split(ds: StreamDataset, segment: Range, boundaries: Array[Double]): Array[ArraySeq[Long]] =
    splitBy(segment.length, segment(_).toLong, i => ds.proxy(segment(i)), boundaries)
      .map(ArraySeq.unsafeWrapArray(_))

  /** Two passes: each record's stratum and the stratum sizes, then fill. */
  private def splitBy(n: Int, idx: Int => Long, proxy: Int => Double, boundaries: Array[Double]): Array[Array[Long]] = {
    val stratum = new Array[Int](n)
    val sizes = new Array[Int](boundaries.length + 1)
    var i = 0
    while (i < n) { stratum(i) = assign(proxy(i), boundaries); sizes(stratum(i)) += 1; i += 1 }
    val out = sizes.map(new Array[Long](_))
    val filled = new Array[Int](sizes.length)
    i = 0
    while (i < n) {
      val k = stratum(i)
      out(k)(filled(k)) = idx(i); filled(k) += 1; i += 1
    }
    out
  }
}
