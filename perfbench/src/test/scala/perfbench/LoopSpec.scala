package perfbench

import org.scalatest.funsuite.AnyFunSuite

class LoopSpec extends AnyFunSuite {

  test("the timed Monte-Carlo phase is a whole number of rounds, at least one") {
    assert(Loop.mcRounds(Workloads.PaperScale, 16) == 1)
    assert(Loop.mcRounds(Workloads.ManyStreams, 16) == 2)
    assert(Loop.mcRounds(Workloads.ManyStreams, 8) == 1)
    assert(Loop.mcRounds(Workloads.ManyStreams, 1) == 1)
    assert(Loop.mcRounds(Workloads.ManyStreams, 60) == 7)
  }
}
