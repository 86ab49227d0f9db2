package perfbench

import org.scalatest.funsuite.AnyFunSuite

class ChecksumSpec extends AnyFunSuite {

  private def of(xs: Double*): String = new Checksum().addDoubles(xs).hex

  test("FNV-1a 64 over little-endian bytes") {
    assert(new Checksum().hex == "cbf29ce484222325")
    assert(new Checksum().addLong(1L).hex == "89cd31291d2aefa4")
    assert(of(1.0, 2.5) == "2f2034ea1c68fe1c")
  }

  test("order and every bit matter") {
    assert(of(1.0, 2.0) != of(2.0, 1.0))
    assert(of(0.0) != of(-0.0))
    assert(of(1.0) != of(java.lang.Math.nextUp(1.0)))
  }

  test("equal inputs give equal checksums; NaNs are canonical") {
    assert(of(0.1, 0.2) == of(0.1, 0.2))
    assert(of(Double.NaN) == of(java.lang.Double.longBitsToDouble(0x7ff8000000000001L)))
  }

  test("agreement bits count how far two doubles' bit patterns agree") {
    assert(StreamPhase.agreementBits(0.1, 0.1) == 64)
    assert(StreamPhase.agreementBits(1.0, java.lang.Math.nextUp(1.0)) == 63)
    assert(StreamPhase.agreementBits(1.0, java.lang.Math.nextUp(java.lang.Math.nextUp(1.0))) == 62)
    assert(StreamPhase.agreementBits(-2.0, java.lang.Math.nextDown(-2.0)) == 63)
    assert(StreamPhase.agreementBits(1.0, -1.0) == 0)
  }
}
