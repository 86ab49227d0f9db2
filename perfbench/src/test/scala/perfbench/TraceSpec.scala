package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long, name: String = "s") =
    Span(id, name, parent, "op", start, end)

  test("self time subtracts the union of child intervals, clipped to the parent") {
    val spans = Seq(
      span(0, -1, 0, 100),
      span(1, 0, 10, 30),
      span(2, 0, 20, 50),   // overlaps child 1: counted once
      span(3, 0, 90, 120),  // runs past the parent: clipped at 100
      span(4, 1, 12, 18),   // grandchild: only its own parent loses it
    )
    val self = Trace.selfTimes(spans)
    assert(self(0) == 100 - 40 - 10)
    assert(self(1) == 20 - 6)
    assert(self(2) == 30)
    assert(self(3) == 30)
    assert(self(4) == 6)
  }

  test("a span without children keeps its whole duration") {
    assert(Trace.selfTimes(Seq(span(0, -1, 5, 9)))(0) == 4)
  }

  test("self and total time roll up by span name") {
    val spans = Seq(span(0, -1, 0, 10, "a"), span(1, 0, 2, 6, "b"), span(2, -1, 20, 25, "a"))
    val byName = Trace.byName(spans).map(t => t.name -> t).toMap
    assert(byName("a").calls == 2 && byName("a").totalNs == 15 && byName("a").selfNs == 11)
    assert(byName("b").selfNs == 4)
  }

  test("the tracer nests spans and passes the operation id down") {
    val t = new Tracer(true)
    val v = t.span("outer", "op-1")(t.span("inner")(42))
    assert(v == 42)
    val Seq(outer, inner) = t.all
    assert(outer.parent == -1 && inner.parent == outer.id)
    assert(inner.op == "op-1")
    assert(outer.startNs <= inner.startNs && inner.endNs <= outer.endNs)
  }

  test("a disabled tracer records nothing") {
    val t = new Tracer(false)
    assert(t.span("x", "op")(7) == 7)
    assert(t.all.isEmpty)
  }

  test("a span closes when its body throws") {
    val t = new Tracer(true)
    intercept[IllegalStateException](t.span("boom")(throw new IllegalStateException("x")))
    assert(t.all.head.endNs >= t.all.head.startNs)
    t.span("next")(())
    assert(t.all(1).parent == -1)
  }
}
