package repro.query

import repro.core.{AggFunc, QueryConfig}

/** A tumbling-window or duration interval from the Figure 2 syntax.
  * `unit` is either record-based (RECORDS / FRAMES / TWEETS) or
  * time-based (SECONDS / MINUTES / HOURS); time-based intervals convert
  * to record counts given a stream rate.
  */
final case class Interval(value: Long, unit: String) {
  require(value > 0, s"interval must be positive, got $value")
  require(Interval.RecordUnits.contains(unit) || Interval.SecondsPerUnit.contains(unit),
    s"unknown interval unit '$unit'")

  /** Number of stream records this interval spans. `recordsPerSecond`
    * is required only for time-based units (e.g. 30 fps video).
    */
  def toRecords(recordsPerSecond: Double = Double.NaN): Long =
    if (Interval.RecordUnits.contains(unit)) value else time(Interval.SecondsPerUnit(unit), recordsPerSecond)

  /** Multiplied in `Double`, which is exact below 2^53 and, unlike a
    * `Long` product, cannot wrap: an overlong span saturates at
    * `Long.MaxValue`.
    */
  private def time(secondsPerUnit: Long, rps: Double): Long = {
    require(!rps.isNaN && rps > 0,
      s"time-based interval '$value $unit' needs a records-per-second rate")
    math.round(value.toDouble * secondsPerUnit * rps)
  }
}

object Interval {
  val RecordUnits: Set[String] = Set("RECORD", "RECORDS", "FRAME", "FRAMES", "TWEET", "TWEETS")
  val SecondsPerUnit: Map[String, Long] =
    Map("SECOND" -> 1L, "SECONDS" -> 1L, "MINUTE" -> 60L, "MINUTES" -> 60L, "HOUR" -> 3600L, "HOURS" -> 3600L)
}

/** Parsed form of an InQuest query (paper Figure 2). */
final case class ParsedQuery(
    agg: AggFunc,
    statistic: String,
    dataset: String,
    predicate: Option[String],
    windowColumn: String,
    window: Interval,
    oracleLimit: Int,
    duration: Option[Interval],
    proxy: String,
) {
  /** Compile to the engine configuration. */
  def toQueryConfig(recordsPerSecond: Double = Double.NaN): QueryConfig =
    QueryConfig(
      agg = agg,
      usePredicate = predicate.isDefined,
      segmentLength = {
        val n = window.toRecords(recordsPerSecond)
        require(n <= Int.MaxValue,
          s"window '${window.value} ${window.unit}' spans $n records, more than ${Int.MaxValue}")
        n.toInt
      },
      budgetPerSegment = oracleLimit,
    )
}

/** Recursive-regex-free parser for the Flink-SQL-like InQuest syntax:
  *
  * {{{
  * SELECT AGG(expr) FROM dataset
  * [WHERE predicate]
  * TUMBLE(column, INTERVAL 'n' UNIT)
  * ORACLE LIMIT n
  * [DURATION INTERVAL 'n' UNIT]
  * USING proxy
  * }}}
  *
  * Numbers may contain thousands-separator commas and be quoted, exactly
  * as in the paper's examples (`INTERVAL '108,000' FRAMES`,
  * `ORACLE LIMIT 1,000`): plain digits, or groups of three after the
  * first. A malformed number or an interval unit that is neither a record
  * nor a time unit is rejected, naming its clause.
  */
object QueryParser {

  // The paper's examples place WHERE either between FROM and TUMBLE
  // (Figure 2) or between TUMBLE and ORACLE LIMIT (§2.3); accept either,
  // and reject a query that has both.
  private val QueryRe =
    ("""(?is)\s*SELECT\s+(AVG|SUM|COUNT)\s*\((.+?)\)\s+FROM\s+([\w-]+)""" +
      """(?:\s+WHERE\s+(.+?))?""" +
      """\s+TUMBLE\s*\(\s*(\w+)\s*,\s*INTERVAL\s+'?([\d,]+)'?\s+(\w+)\s*\)""" +
      """(?:\s+WHERE\s+(.+?))?""" +
      """\s+ORACLE\s+LIMIT\s+'?([\d,]+)'?""" +
      """(?:\s+DURATION\s+INTERVAL\s+'?([\d,]+)'?\s+(\w+))?""" +
      """\s+USING\s+([^\s;]+)\s*;?\s*""").r

  private val NumberRe = """\d+|\d{1,3}(,\d{3})+""".r

  private def num(s: String): Long = {
    require(NumberRe.matches(s), s"malformed number '$s'")
    s.replace(",", "").toLong
  }

  /** `body`, whose argument errors name the clause they are in. */
  private def in[A](clause: String)(body: => A): A =
    try body catch { case e: IllegalArgumentException => throw new IllegalArgumentException(s"$clause: ${e.getMessage}", e) }

  def parse(sql: String): ParsedQuery = sql match {
    case QueryRe(agg, expr, dataset, where1, winCol, winVal, winUnit, where2,
                 limit, durVal, durUnit, proxy) =>
      require(where1 == null || where2 == null,
        s"a query has one WHERE clause, before or after TUMBLE; got two: '${where1.trim}' and '${where2.trim}'")
      val where = Option(where1).orElse(Option(where2))
      ParsedQuery(
        agg = agg.toUpperCase match {
          case "AVG" => AggFunc.Avg
          case "SUM" => AggFunc.Sum
          case "COUNT" => AggFunc.Count
        },
        statistic = expr.trim,
        dataset = dataset,
        predicate = where.map(_.trim).filter(_.nonEmpty),
        windowColumn = winCol,
        window = in("TUMBLE")(Interval(num(winVal), winUnit.toUpperCase)),
        oracleLimit = in("ORACLE LIMIT") {
          val n = num(limit)
          require(n > 0 && n <= Int.MaxValue, s"oracle limit out of range: $n")
          n.toInt
        },
        duration = Option(durVal).map(v => in("DURATION")(Interval(num(v), durUnit.toUpperCase))),
        proxy = proxy.trim,
      )
    case _ =>
      throw new IllegalArgumentException(
        s"cannot parse InQuest query (expected Figure 2 syntax):\n$sql")
  }
}
