package perfbench

import org.scalatest.funsuite.AnyFunSuite

class SummarySpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Summary.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Summary.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Summary.median(Seq(7.0)) == 7.0)
  }

  test("nearest-rank percentile") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Summary.percentile(xs, 0.9) == 90.0)
    assert(Summary.percentile(xs, 0.99) == 99.0)
    assert(Summary.percentile(xs, 1.0) == 100.0)
    assert(Summary.percentile(Seq(5.0, 1.0), 0.5) == 1.0)
  }

  test("a tail percentile is reported only with ten samples beyond it") {
    def tailQ(n: Int) = Summary.tail((1 to n).map(_.toDouble)).map(_._1)
    assert(tailQ(9).isEmpty)
    assert(tailQ(99).isEmpty)
    assert(tailQ(100).contains(0.9))
    assert(tailQ(999).contains(0.9))
    assert(tailQ(1000).contains(0.99))
    assert(tailQ(10000).contains(0.999))
    assert(Summary.beyond(100, 0.9) == 10)
    assert(Summary.beyond(99, 0.9) == 9)
  }

  test("report renders the median, the tail and the count") {
    val r = Summary.report((1 to 100).map(_.toDouble))
    assert(r.n == 100 && r.median == 50.5 && r.tail.contains(0.9 -> 90.0))
    assert(r.render("ms") == "p50 50.5000 ms, p90.0 90.0000 ms (n=100)")
    assert(Summary.report(Seq(1.0, 2.0)).render("s") == "p50 1.5000 s (n=2)")
  }
}
