package repro.data

import repro.core.StreamDataset

/** The evaluation dataset catalogue (DESIGN.md §4): synthetic analogues of
  * the paper's six real-world streams, keyed by name, calibrated to
  * Table 2's predicate positivity rate `p` and proxy correlation `r`.
  */
object Datasets {

  /** One catalogue entry: paper-reported targets plus generator kind. */
  final case class Spec(name: String, kind: String, p: Double, r: Double,
                        lambda0: Double, drift: Double)

  /** Table 2, verbatim targets. `lambda0` sets the object-count scale
    * (denser intersections → higher mean count); `drift` sets the
    * amplitude of the slow intensity variation (different cameras have
    * different diurnal swing).
    */
  val specs: Seq[Spec] = Seq(
    Spec("archie",           "video", 0.50, 0.92, 2.0, 0.55),
    Spec("customer-support", "text",  0.56, 0.79, 0.0, 0.0),
    Spec("grand-canal",      "video", 0.60, 0.91, 1.5, 0.50),
    Spec("night-street",     "video", 0.37, 0.92, 1.0, 0.60),
    Spec("rialto",           "video", 0.89, 0.91, 2.5, 0.35),
    Spec("taipei",           "video", 0.63, 0.87, 3.0, 0.50),
  )

  val names: Seq[String] = specs.map(_.name)

  /** Paper evaluation-query duration (§5.1): 500 k records, T = 5
    * segments of 100 k.
    */
  val Duration = 500_000

  /** Generator seed of the catalogue streams (Tables 2–4). */
  val CatalogueSeed = 7L

  /** Generator seed of the §5.6 adversarial suite. */
  val SuiteSeed = 11L

  /** Generate one catalogue dataset at a given length (tests shrink it). */
  def generate(name: String, length: Int = Duration, seed: Long = CatalogueSeed): StreamDataset = {
    val spec = specs.find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(
        s"unknown dataset '$name'; known: ${names.mkString(", ")}"))
    spec.kind match {
      case "video" =>
        StreamGen.videoLike(name, length, spec.p, spec.r, lambda0 = spec.lambda0,
          drift = spec.drift, seed = seed ^ name.hashCode.toLong)
      case "text" =>
        StreamGen.textLike(name, length, spec.p, spec.r,
          seed = seed ^ name.hashCode.toLong)
    }
  }

  /** The §5.6 benchmark suite: for each nShifts ∈ [1..5], `perShift`
    * streams (paper: 20 → 100 datasets), each generated when it is
    * reached, so a consumer holds one stream at a time.
    */
  def adversarialSuite(length: Int, perShift: Int, seed: Long = SuiteSeed): Iterator[(Int, StreamDataset)] =
    for {
      n <- Iterator.range(1, 6)
      rep <- Iterator.range(0, perShift)
    } yield (n, StreamGen.adversarial(s"adv-n$n-r$rep", length, n, seed = seed + n * 1000 + rep))
}
