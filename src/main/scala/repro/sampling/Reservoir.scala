package repro.sampling

import repro.util.Rng

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
  def bottomN(idxs: Seq[Long], n: Int, seed: Long, tag: Long = 0L): Vector[Long] = {
    require(n >= 0, s"sample size must be >= 0, got $n")
    if (n == 0) Vector.empty
    else if (idxs.size <= n) idxs.sorted.toVector
    else {
      // Partial selection via a bounded priority queue (max-heap on key).
      val ord = Ordering.by[(Double, Long), (Double, Long)](identity)
      val heap = scala.collection.mutable.PriorityQueue.empty[(Double, Long)](ord)
      idxs.foreach { idx =>
        val u = Rng.uniform(seed, idx, tag)
        if (heap.size < n) heap.enqueue((u, idx))
        else if (ord.lt((u, idx), heap.head)) { heap.dequeue(); heap.enqueue((u, idx)) }
      }
      heap.iterator.map(_._2).toVector.sorted
    }
  }
}
