package repro.core

import repro.util.Stats
import scala.collection.immutable.ArraySeq

/** GetStrata (Algorithm 2): proxy-quantile stratification. The EWMA over
  * the segment history is `Stats.Ewma`, a record's stratum
  * `Stats.stratumOf`.
  */
object Stratification {

  /** Boundaries splitting `proxies` into K equal-count strata (the K−1
    * interior quantiles) — `StratifyByQuantile(P(D_{t−1}), K)`.
    */
  def quantileStrata(proxies: Seq[Double], k: Int): Array[Double] =
    Stats.quantileBoundaries(proxies, k)

  /** Partition a segment's records into K strata by proxy score: the
    * record indices per stratum, in the order of `idx`. `idx` and `proxy`
    * are parallel. Two passes: each record's stratum and the stratum
    * sizes, then fill.
    */
  def split(idx: Array[Long], proxy: Array[Double], boundaries: Array[Double]): Array[Array[Long]] = {
    val stratum = new Array[Int](idx.length)
    val sizes = new Array[Int](boundaries.length + 1)
    var i = 0
    while (i < idx.length) { stratum(i) = Stats.stratumOf(proxy(i), boundaries); sizes(stratum(i)) += 1; i += 1 }
    val out = sizes.map(new Array[Long](_))
    val filled = new Array[Int](sizes.length)
    i = 0
    while (i < idx.length) {
      val k = stratum(i)
      out(k)(filled(k)) = idx(i); filled(k) += 1; i += 1
    }
    out
  }

  /** [[split]] over the records of `segment` of `ds`. */
  def split(ds: StreamDataset, segment: Range, boundaries: Array[Double]): Array[ArraySeq[Long]] = {
    val (idx, proxy) = ds.keys(segment)
    split(idx, proxy, boundaries).map(ArraySeq.unsafeWrapArray(_))
  }
}
