package repro.testkit

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.StreamDataset
import repro.spark.StreamRecord

/** Stream datasets as DataFrames, the input the Catalyst engine reads. */
object SparkData {

  /** Materialize a [[StreamDataset]] as a DataFrame of [[StreamRecord]]s. */
  def toDF(spark: SparkSession, ds: StreamDataset, partitions: Int = 0): DataFrame = {
    import spark.implicits._
    val recs = (0 until ds.length).map(i =>
      StreamRecord(i.toLong, ds.proxy(i), ds.statistic(i), ds.predicate(i)))
    val d = spark.createDataset(recs)
    (if (partitions > 0) d.repartition(partitions) else d).toDF()
  }
}
