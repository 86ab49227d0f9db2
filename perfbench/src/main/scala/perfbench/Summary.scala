package perfbench

/** Order statistics the benchmark reports: a median, plus the highest tail
  * percentile that the sample can support.
  */
object Summary {

  /** Tail percentiles tried, highest first. */
  val Tails: Seq[Double] = Seq(0.999, 0.99, 0.9)

  /** A sample needs this many values strictly beyond a percentile before
    * that percentile is reported.
    */
  val MinBeyond = 10

  final case class Report(n: Int, median: Double, tail: Option[(Double, Double)]) {
    def render(unit: String): String = {
      val t = tail.fold("") { case (q, v) => f", p${q * 100}%.1f ${v}%.4f $unit" }
      f"p50 ${median}%.4f $unit$t (n=$n)"
    }
  }

  /** Median with the average-of-middles convention for even counts. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(q > 0 && q <= 1, s"percentile must be in (0,1], got $q")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.size).toInt - 1))
  }

  /** Values of an `n`-sample strictly beyond its nearest-rank `q` percentile. */
  def beyond(n: Int, q: Double): Int = n - math.ceil(q * n).toInt

  /** The highest of [[Tails]] with at least [[MinBeyond]] values beyond it. */
  def tail(xs: Seq[Double]): Option[(Double, Double)] =
    Tails.find(q => beyond(xs.size, q) >= MinBeyond).map(q => q -> percentile(xs, q))

  def report(xs: Seq[Double]): Report = Report(xs.size, median(xs), tail(xs))
}

/** FNV-1a 64 over the IEEE-754 bits of doubles and the bytes of longs, so
  * that two runs agree on a checksum only if every value is bit-identical.
  */
final class Checksum {
  private var h: Long = Checksum.Offset

  def addLong(x: Long): this.type = {
    var i = 0
    while (i < 8) {
      h ^= (x >>> (8 * i)) & 0xFF
      h *= Checksum.Prime
      i += 1
    }
    this
  }

  def addDouble(x: Double): this.type = addLong(java.lang.Double.doubleToLongBits(x))

  def addDoubles(xs: Iterable[Double]): this.type = { xs.foreach(addDouble); this }

  def value: Long = h

  def hex: String = f"$h%016x"
}

object Checksum {
  val Offset: Long = 0xCBF29CE484222325L
  val Prime: Long = 0x100000001B3L
}
