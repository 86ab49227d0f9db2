package repro.spark

import repro.SparkSpec
import repro.data.StreamGen
import repro.testkit.SparkData

class SparkDataSpec extends SparkSpec {

  test("toDF carries one row per record with the right schema") {
    val ds = StreamGen.videoLike("sc", 500, 0.5, 0.9, seed = 72)
    val df = SparkData.toDF(spark, ds)
    assert(df.count() == 500)
    assert(df.columns.toSet == Set("idx", "proxy", "statistic", "predicate"))
  }
}
