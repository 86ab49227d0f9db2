package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.core.AggFunc
import repro.data.Datasets

class QueryParserSpec extends AnyFunSuite {

  private val trafficQuery =
    """SELECT AVG(count(car)) FROM video
      |TUMBLE(frame_idx, INTERVAL '108,000' FRAMES)
      |ORACLE LIMIT 1,000
      |USING proxy_count_cars(frame)""".stripMargin

  private val twitterQuery =
    """SELECT COUNT(positive(tweet)) FROM twitter
      |TUMBLE(tweet_timestamp, INTERVAL '30' MINUTES)
      |WHERE mentions_candidate(tweet)
      |ORACLE LIMIT 5,000
      |DURATION INTERVAL '4' HOURS
      |USING proxy_mentions_candidate_pos(tweet)""".stripMargin

  test("parses the paper's traffic-analysis example") {
    val q = QueryParser.parse(trafficQuery)
    assert(q.agg == AggFunc.Avg)
    assert(q.statistic == "count(car)")
    assert(q.dataset == "video")
    assert(q.predicate.isEmpty)
    assert(q.windowColumn == "frame_idx")
    assert(q.window == Interval(108000, "FRAMES"))
    assert(q.oracleLimit == 1000)
    assert(q.duration.isEmpty)
    assert(q.proxy == "proxy_count_cars(frame)")
  }

  test("parses the paper's Twitter-sentiment example (WHERE before TUMBLE)") {
    // Figure 2 allows the predicate between FROM and TUMBLE
    val q = QueryParser.parse(
      """SELECT COUNT(positive(tweet)) FROM twitter
        |WHERE mentions_candidate(tweet)
        |TUMBLE(tweet_timestamp, INTERVAL '30' MINUTES)
        |ORACLE LIMIT 5,000
        |DURATION INTERVAL '4' HOURS
        |USING proxy_mentions_candidate_pos(tweet)""".stripMargin)
    assert(q.agg == AggFunc.Count)
    assert(q.predicate.contains("mentions_candidate(tweet)"))
    assert(q.window == Interval(30, "MINUTES"))
    assert(q.oracleLimit == 5000)
    assert(q.duration.contains(Interval(4, "HOURS")))
  }

  test("every catalogue stream can be named in FROM, with WHERE before or after TUMBLE") {
    Datasets.names.foreach { name =>
      Seq(
        s"SELECT AVG(count(car)) FROM $name WHERE has_car(frame) TUMBLE(idx, INTERVAL '100,000' FRAMES) ORACLE LIMIT 100 USING p",
        s"SELECT AVG(count(car)) FROM $name TUMBLE(idx, INTERVAL '100,000' FRAMES) WHERE has_car(frame) ORACLE LIMIT 100 USING p",
      ).foreach { sql =>
        val q = QueryParser.parse(sql)
        assert(q.dataset == name, sql)
        assert(q.predicate.contains("has_car(frame)"), sql)
      }
    }
  }

  test("parses SUM aggregation and RECORDS unit") {
    val q = QueryParser.parse(
      "SELECT SUM(sentiment(t)) FROM s TUMBLE(idx, INTERVAL 100000 RECORDS) ORACLE LIMIT 500 USING p")
    assert(q.agg == AggFunc.Sum)
    assert(q.window == Interval(100000, "RECORDS"))
  }

  test("is case-insensitive on keywords") {
    val q = QueryParser.parse(
      "select avg(f(x)) from d tumble(idx, interval '10' frames) oracle limit 5 using p")
    assert(q.agg == AggFunc.Avg && q.oracleLimit == 5)
  }

  test("numbers may carry thousands separators everywhere") {
    val q = QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '1,000,000' RECORDS) ORACLE LIMIT 10,000 USING p")
    assert(q.window.value == 1000000L && q.oracleLimit == 10000)
  }

  test("toQueryConfig converts a record-based window directly") {
    val cfg = QueryParser.parse(trafficQuery).toQueryConfig()
    assert(cfg.segmentLength == 108000)
    assert(cfg.budgetPerSegment == 1000)
    assert(!cfg.usePredicate)
    assert(cfg.agg == AggFunc.Avg)
  }

  test("toQueryConfig converts time-based windows given a stream rate") {
    val q = QueryParser.parse(twitterQuery)
    // 30 minutes at 100 tweets/sec = 180,000 records
    assert(q.toQueryConfig(recordsPerSecond = 100).segmentLength == 180000)
    assert(q.toQueryConfig(recordsPerSecond = 100).usePredicate)
  }

  test("a window of more than Int.MaxValue records is rejected, not wrapped") {
    val q = QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(idx, INTERVAL '4,294,967,396' RECORDS) ORACLE LIMIT 10 USING p")
    val e = intercept[IllegalArgumentException](q.toQueryConfig())
    assert(e.getMessage.contains("4294967396 RECORDS"), e.getMessage)
  }

  test("a time-based window whose seconds overflow a Long is rejected, not wrapped") {
    // 5,124,095,576,030,432 h × 3,600 s/h = 2^64 + 3,584 s: a Long product
    // wraps to a 3,584-record window.
    val q = QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(idx, INTERVAL '5,124,095,576,030,432' HOURS) ORACLE LIMIT 10 USING p")
    val e = intercept[IllegalArgumentException](q.toQueryConfig(recordsPerSecond = 1))
    assert(e.getMessage.contains("5124095576030432 HOURS"), e.getMessage)
  }

  test("time-based interval without a rate is rejected") {
    val q = QueryParser.parse(twitterQuery)
    assertThrows[IllegalArgumentException](q.toQueryConfig())
  }

  test("Interval unit conversions") {
    assert(Interval(2, "HOURS").toRecords(30) == 216000)
    assert(Interval(90, "SECONDS").toRecords(2) == 180)
    assert(Interval(500, "TWEETS").toRecords() == 500)
  }

  test("a malformed number is rejected at parse time, naming its clause") {
    def query(window: String, limit: String) =
      s"SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL $window RECORDS) ORACLE LIMIT $limit USING p"
    Seq("'1,0'", "'10,00'", "',100'", "'100,'", "'1,,000'", "'1000,000'").foreach { w =>
      val e = intercept[IllegalArgumentException](QueryParser.parse(query(w, "5")))
      assert(e.getMessage.contains("TUMBLE") && e.getMessage.contains(w.stripPrefix("'").stripSuffix("'")), e.getMessage)
    }
    Seq("'5,0'", "5,0", "1,00,000").foreach { l =>
      val e = intercept[IllegalArgumentException](QueryParser.parse(query("'10'", l)))
      assert(e.getMessage.contains("ORACLE LIMIT"), e.getMessage)
    }
    val e = intercept[IllegalArgumentException](QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '10' RECORDS) ORACLE LIMIT 5 DURATION INTERVAL '1,0' HOURS USING p"))
    assert(e.getMessage.contains("DURATION"), e.getMessage)
  }

  test("an unknown interval unit is rejected at parse time, naming its clause") {
    val tumble = intercept[IllegalArgumentException](QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '5' BANANAS) ORACLE LIMIT 5 USING p"))
    assert(tumble.getMessage.contains("TUMBLE") && tumble.getMessage.contains("BANANAS"), tumble.getMessage)
    val duration = intercept[IllegalArgumentException](QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '5' RECORDS) ORACLE LIMIT 5 DURATION INTERVAL '2' WEEKS USING p"))
    assert(duration.getMessage.contains("DURATION") && duration.getMessage.contains("WEEKS"), duration.getMessage)
  }

  test("the benchmark's window spellings and every known unit still parse") {
    Seq("'100,000' FRAMES" -> 100000L, "'500,000' RECORDS" -> 500000L, "'20,000' RECORDS" -> 20000L,
        "7 record" -> 7L, "'12' Tweets" -> 12L).foreach { case (w, n) =>
      val q = QueryParser.parse(s"SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL $w) ORACLE LIMIT '5' USING p")
      assert(q.window.value == n && q.oracleLimit == 5, w)
    }
    Seq("SECOND", "SECONDS", "MINUTE", "MINUTES", "HOUR", "HOURS").foreach { u =>
      val q = QueryParser.parse(s"SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '2' $u) ORACLE LIMIT 5 USING p")
      assert(q.window == Interval(2, u))
    }
  }

  test("unknown interval units are rejected at conversion") {
    assertThrows[IllegalArgumentException](Interval(5, "FORTNIGHTS").toRecords(1.0))
  }

  test("non-positive intervals are rejected") {
    assertThrows[IllegalArgumentException](Interval(0, "RECORDS"))
  }

  test("malformed queries are rejected with a helpful error") {
    val e = intercept[IllegalArgumentException](QueryParser.parse("SELECT * FROM x"))
    assert(e.getMessage.contains("Figure 2"))
  }

  test("a query with a WHERE clause in both positions is rejected, naming both predicates") {
    val e = intercept[IllegalArgumentException](QueryParser.parse(
      """SELECT AVG(count) FROM archie WHERE count > 0
        |TUMBLE(frame_idx, INTERVAL '100,000' FRAMES) WHERE count > 5
        |ORACLE LIMIT 100 USING proxy_count""".stripMargin))
    assert(e.getMessage.contains("count > 0"))
    assert(e.getMessage.contains("count > 5"))
  }

  test("missing ORACLE LIMIT is rejected") {
    assertThrows[IllegalArgumentException](QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '10' RECORDS) USING p"))
  }

  test("oracle limit of zero is rejected") {
    assertThrows[IllegalArgumentException](QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '10' RECORDS) ORACLE LIMIT 0 USING p"))
  }

  test("trailing semicolons and extra whitespace are tolerated") {
    val q = QueryParser.parse(
      "  SELECT AVG( f(x) )  FROM  d   TUMBLE(i, INTERVAL '10' RECORDS) ORACLE LIMIT 5 USING p ;  ")
    assert(q.statistic == "f(x)")
    assert(q.proxy == "p")
    val tight = QueryParser.parse(
      "SELECT AVG(f(x)) FROM d TUMBLE(i, INTERVAL '10' RECORDS) ORACLE LIMIT 5 USING p;")
    assert(tight.proxy == "p")
  }
}
