package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call the benchmark made into a layer. `op` is shared by every
  * span of one operation (one `evaluate` call, one streaming episode, ...);
  * `parent` is the id of the enclosing span, or -1.
  */
final case class Span(id: Int, name: String, parent: Int, op: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Records spans around the benchmark's own calls into each layer. Spans
  * stay in memory until the run ends. The tracer is used from the driver
  * thread only; when disabled it just runs the body.
  */
final class Tracer(enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil

  def span[A](name: String, op: String = "")(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.size
      val parent = stack.headOption.getOrElse(-1)
      val inheritedOp = if (op.nonEmpty) op else stack.headOption.fold("")(spans(_).op)
      spans += Span(id, name, parent, inheritedOp, System.nanoTime(), -1L)
      stack = id :: stack
      try body
      finally {
        stack = stack.tail
        spans(id) = spans(id).copy(endNs = System.nanoTime())
      }
    }

  def all: Vector[Span] = spans.toVector
}

object Trace {

  /** Self time of each span: its duration minus the part of its interval
    * that its children cover (overlapping children are counted once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val intervals = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curStart = Long.MinValue
      var curEnd = Long.MinValue
      intervals.foreach { case (a, b) =>
        if (a > curEnd) {
          if (curEnd > curStart) covered += curEnd - curStart
          curStart = a; curEnd = b
        } else curEnd = math.max(curEnd, b)
      }
      if (curEnd > curStart) covered += curEnd - curStart
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Total and self time per span name, in nanoseconds, with call counts. */
  final case class NameTotals(name: String, calls: Int, totalNs: Long, selfNs: Long)

  def byName(spans: Seq[Span]): Seq[NameTotals] = {
    val self = selfTimes(spans)
    spans.groupBy(_.name).toSeq.map { case (name, ss) =>
      NameTotals(name, ss.size, ss.map(_.durNs).sum, ss.map(s => self(s.id)).sum)
    }.sortBy(-_.selfNs)
  }
}
