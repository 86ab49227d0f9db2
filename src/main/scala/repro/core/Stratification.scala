package repro.core

import repro.util.Stats

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
  def split(idx: IndexedSeq[Long], proxy: IndexedSeq[Double], boundaries: Array[Double]): Array[Vector[Long]] =
    splitBy(idx.length, idx(_), proxy(_), boundaries)

  /** [[split]] over the records of `segment` of `ds`, without copying them. */
  def split(ds: StreamDataset, segment: Range, boundaries: Array[Double]): Array[Vector[Long]] =
    splitBy(segment.length, segment(_).toLong, i => ds.proxy(segment(i)), boundaries)

  private def splitBy(n: Int, idx: Int => Long, proxy: Int => Double, boundaries: Array[Double]): Array[Vector[Long]] = {
    val out = Array.fill(boundaries.length + 1)(Vector.newBuilder[Long])
    var i = 0
    while (i < n) { out(assign(proxy(i), boundaries)) += idx(i); i += 1 }
    out.map(_.result())
  }
}
