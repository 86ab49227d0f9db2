package perfbench

import java.nio.file.{Files, Paths}

/** How long one timed unit (an `evaluate` call, a segment) took: its wall
  * time, and the share of the CPU time the machine wanted meanwhile that
  * the host gave to other machines instead (steal).
  *
  * On a shared virtual machine the host takes away from none to more than
  * half of the CPU time, varying from second to second, and wall time
  * grows with it. [[ms]], the wall time less the stolen share, is what the
  * benchmark reports: it is matched to the unit's own interval and keeps
  * everything else in wall time (idle waits, imbalance, collection
  * pauses).
  */
final case class Timing(wallMs: Double, stealFrac: Double) {
  def ms: Double = wallMs * (1 - stealFrac)
}

/** A point in time with the machine's CPU tick counters. */
final case class Stamp(nanos: Long, busyTicks: Long, stealTicks: Long) {

  /** The unit from this stamp to `end`. The stolen share is steal ticks
    * over busy plus steal ticks, summed over all CPUs: a CPU the machine
    * leaves idle is not stolen from.
    */
  def until(end: Stamp): Timing = {
    val busy = end.busyTicks - busyTicks
    val steal = end.stealTicks - stealTicks
    Timing((end.nanos - nanos) / 1e6, if (busy + steal > 0) steal.toDouble / (busy + steal) else 0.0)
  }
}

object Clock {
  private val procStat = Paths.get("/proc/stat")

  /** Busy and steal ticks of all CPUs from the `cpu` line of /proc/stat
    * (user nice system idle iowait irq softirq steal ...); zeros where
    * there is no such file, so that no time counts as stolen.
    */
  def ticks(cpuLine: String): (Long, Long) = {
    val f = cpuLine.trim.split("\\s+").drop(1).map(_.toLong)
    (f(0) + f(1) + f(2) + f(5) + f(6), if (f.length > 7) f(7) else 0L)
  }

  def now(): Stamp = {
    val (busy, steal) =
      if (!Files.isReadable(procStat)) (0L, 0L)
      else ticks(new String(Files.readAllBytes(procStat)).linesIterator.next())
    Stamp(System.nanoTime(), busy, steal)
  }
}
