package repro.util

/** Deterministic, splittable pseudo-randomness.
  *
  * All sampling decisions in this reproduction are pure functions of a
  * `(seed, index)` pair, computed with a splitmix64-style bit mixer. This
  * gives three properties the reproduction relies on:
  *
  *   1. Trials are reproducible end-to-end from a single seed.
  *   2. The record-at-a-time local engine and the Catalyst micro-batch
  *      engine draw *identical* samples (both hash the record index), so
  *      engine equivalence can be asserted exactly.
  *   3. Streams of uniforms for different purposes (sampling vs. data
  *      generation) are decorrelated by mixing distinct purpose tags.
  */
object Rng {

  /** splitmix64 finalizer: a high-quality 64-bit mixer. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** The `(seed, tag)` half of a record's key, `mix64(salt ^ idx)`: hoist
    * it out of a loop over indices and finish each key with [[keyAt]].
    */
  def salt(seed: Long, tag: Long = 0L): Long = mix64(seed ^ mix64(tag))

  /** The 53-bit integer numerator of `uniformAt(salt, idx)`, in
    * [0, 2^53): keys order, and tie, exactly as the uniforms do.
    */
  def keyAt(salt: Long, idx: Long): Long = mix64(salt ^ idx) >>> 11

  /** `uniform(seed, idx, tag)` given `salt(seed, tag)`: the key times
    * 2^-53, which is exact.
    */
  def uniformAt(salt: Long, idx: Long): Double = keyAt(salt, idx) * 1.1102230246251565e-16 // 2^-53

  /** Uniform double in [0, 1), a pure function of (seed, idx, tag). */
  def uniform(seed: Long, idx: Long, tag: Long = 0L): Double = uniformAt(salt(seed, tag), idx)

  /** A mutable sequential generator seeded from the same keyspace; used by
    * generators that are inherently sequential (Markov chains, AR(1)).
    */
  final class Seq(seed: Long, tag: Long = 0L) {
    private var state: Long = salt(seed, tag)
    def nextLong(): Long = { state = mix64(state); state }
    def nextUniform(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16
    def nextGaussian(): Double = {
      val u1 = math.max(nextUniform(), 1e-300)
      val u2 = nextUniform()
      math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
    }
    /** Poisson draw via inversion for small lambda, normal approx otherwise. */
    def nextPoisson(lambda: Double): Int = {
      require(lambda >= 0, s"lambda must be >= 0, got $lambda")
      if (lambda == 0) 0
      else if (lambda < 30) {
        val l = math.exp(-lambda)
        var k = 0; var p = 1.0
        while ({ p *= nextUniform(); p > l }) k += 1
        k
      } else math.max(0, math.round(lambda + math.sqrt(lambda) * nextGaussian()).toInt)
    }
  }
}
