"""Tests for QoS classes (repro.net.qos)."""

from repro.net.qos import (
    CLASS_SPECS,
    QosClass,
    class_credit_scales,
    class_weights,
)


class TestClassSpecs:
    def test_latency_fills_faster_than_bulk(self):
        assert (
            CLASS_SPECS[QosClass.LATENCY].weight
            > CLASS_SPECS[QosClass.BULK].weight
        )

    def test_bulk_holds_fewer_credits(self):
        assert (
            CLASS_SPECS[QosClass.BULK].credit_scale
            < CLASS_SPECS[QosClass.LATENCY].credit_scale
        )

    def test_mappings(self):
        classes = {"v": QosClass.LATENCY, "h": QosClass.BULK}
        weights = class_weights(classes)
        scales = class_credit_scales(classes)
        assert weights == {
            "v": CLASS_SPECS[QosClass.LATENCY].weight,
            "h": CLASS_SPECS[QosClass.BULK].weight,
        }
        assert scales == {
            "v": CLASS_SPECS[QosClass.LATENCY].credit_scale,
            "h": CLASS_SPECS[QosClass.BULK].credit_scale,
        }

