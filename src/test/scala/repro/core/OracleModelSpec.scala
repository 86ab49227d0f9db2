package repro.core

import org.scalatest.funsuite.AnyFunSuite

class OracleModelSpec extends AnyFunSuite {

  private def model(limit: Option[Int] = None) =
    new OracleModel(Array(1.0, 2.0, 3.0, 4.0), Array(true, false, true, false), 2, limit)

  test("invoke reveals the ground truth for the record") {
    val m = model()
    assert(m.invoke(0) == (1.0, true))
    assert(m.invoke(1) == (2.0, false))
  }

  test("invocations are metered per segment") {
    // A limit of 2 per segment admits both records of segment 0 and the
    // first of segment 1, and then the second of segment 1.
    val m = model(Some(2))
    m.invoke(0); m.invoke(1); m.invoke(2)
    assert(m.totalCalls == 3)
    m.invoke(3)
    assert(m.totalCalls == 4)
  }

  test("repeat invocations of the same record are counted once (caching)") {
    val m = model()
    m.invoke(0); m.invoke(0); m.invoke(0)
    assert(m.totalCalls == 1)
  }

  test("exceeding the per-segment oracle limit throws") {
    val m = model(Some(1))
    m.invoke(0)
    assertThrows[IllegalArgumentException](m.invoke(1))
  }

  test("the limit applies per segment, not globally") {
    val m = model(Some(1))
    m.invoke(0)
    m.invoke(2) // different segment, fresh budget
    assert(m.totalCalls == 2)
  }

  test("cell applies the WHERE rule: only matches count with a WHERE, every record without") {
    val where = model().cell(10, Array(0L, 1L, 2L), usePredicate = true)
    assert(where == StratumStats(10, nSampled = 3, nPos = 2, sumF = 4.0, sumSqF = 10.0))
    val noWhere = model().cell(10, Array(0L, 1L, 2L), usePredicate = false)
    assert(noWhere == StratumStats(10, nSampled = 3, nPos = 3, sumF = 6.0, sumSqF = 14.0))
  }

  test("cell sums in the given order") {
    def m = new OracleModel(Array(1e16, 1.0, -1e16), Array.fill(3)(true), 3)
    assert(m.cell(3, Array(0L, 1L, 2L), usePredicate = false).sumF == 0.0) // 1e16 + 1 rounds to 1e16
    assert(m.cell(3, Array(0L, 2L, 1L), usePredicate = false).sumF == 1.0)
  }

  test("a record in two cells is invoked once and does not trip the limit") {
    val m = model(Some(2))
    val pooled = m.cell(2, Array(0L, 1L), usePredicate = true)
    val share = m.cell(1, Array(0L), usePredicate = true)
    assert(pooled.nSampled == 2 && share == StratumStats(1, 1, 1, 1.0, 1.0))
    assert(m.totalCalls == 2)
  }

  test("out-of-range record indices are rejected") {
    assertThrows[IllegalArgumentException](model().invoke(4))
    assertThrows[IllegalArgumentException](model().invoke(-1))
  }
}
