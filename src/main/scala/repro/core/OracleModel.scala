package repro.core

/** The expensive high-precision model, metered.
  *
  * In the paper the oracle is a Mask R-CNN / BERT forward pass; here it
  * reveals the ground-truth `(f(x), O(x))` columns of the synthetic stream
  * (DESIGN.md §3: the paper's cost model is *number of invocations*, which
  * this class meters exactly). Invoking the same record twice in one
  * segment is counted once — matching the paper's systems, which cache
  * oracle outputs (ABae "sample reuse").
  *
  * When `limitPerSegment` is set, exceeding the per-segment `ORACLE LIMIT`
  * throws: budget compliance is a hard invariant, not a soft goal.
  */
final class OracleModel(
    statistic: Array[Double],
    predicate: Array[Boolean],
    segmentLength: Int,
    limitPerSegment: Option[Int] = None,
) {
  require(statistic.length == predicate.length, "parallel arrays must agree")
  require(segmentLength > 0, "segment length must be positive")

  private val nSegments = (statistic.length + segmentLength - 1) / segmentLength
  private val callsPerSegment = new Array[Long](math.max(1, nSegments))
  private val seen = new java.util.BitSet(statistic.length)

  def this(ds: StreamDataset, segmentLength: Int, limitPerSegment: Option[Int]) =
    this(ds.statistic, ds.predicate, segmentLength, limitPerSegment)

  /** Run the oracle on record `idx`, returning (f(x), O(x)). */
  def invoke(idx: Int): (Double, Boolean) = {
    meter(idx)
    (statistic(idx), predicate(idx))
  }

  /** Count a first invocation of record `idx` against its segment's limit. */
  private def meter(idx: Int): Unit = {
    require(idx >= 0 && idx < statistic.length, s"record index $idx out of range")
    if (!seen.get(idx)) {
      seen.set(idx)
      val seg = idx / segmentLength
      callsPerSegment(seg) += 1
      limitPerSegment.foreach { lim =>
        require(callsPerSegment(seg) <= lim,
          s"oracle budget exceeded in segment $seg: ${callsPerSegment(seg)} > $lim")
      }
    }
  }

  /** One cell: invoke the oracle on `idxs` in the given order and fold
    * them into |D| = `sizeD` sufficient statistics. Without a WHERE clause
    * (`usePredicate` false) every record matches.
    */
  def cell(sizeD: Long, idxs: Array[Long], usePredicate: Boolean): StratumStats = {
    val fold = new StratumStats.Fold
    var j = 0
    while (j < idxs.length) {
      val i = idxs(j).toInt
      meter(i)
      fold.add(statistic(i), !usePredicate || predicate(i))
      j += 1
    }
    fold.result(sizeD)
  }

  def totalCalls: Long = callsPerSegment.sum
}
