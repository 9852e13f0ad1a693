"""Hold-time analysis."""

from reference.sta import analyze_hold

from repro.rtl.ir import NetlistBuilder


class TestHold:
    def test_registered_pipeline_hold_clean(self, library):
        b = NetlistBuilder("pipe")
        d = b.inputs("d")[0]
        clk = b.inputs("clk")[0]
        q = b.outputs("q")[0]
        b.module.set_clocks([clk])
        s1 = b.dff(d, clk)
        inv = b.inv(s1)
        s2 = b.dff(inv, clk)
        b.cell("BUF_X2", A=s2, Y=q)
        report = analyze_hold(b.finish(), library)
        # clk-to-q (85 ps) + inverter delay >> 10 ps hold.
        assert report.met
        # bound by the external input-delay assumption (50 ps)
        assert report.worst_slack_ns >= 0.03

    def test_hold_on_macro(self, library, small_spec, default_arch):
        from repro.rtl.gen.macro import generate_macro

        mac, _ = generate_macro(small_spec, default_arch)
        report = analyze_hold(mac.flatten(), library)
        assert report.met, report

    def test_hold_report_fields(self, library, small_spec, default_arch):
        from repro.rtl.gen.macro import generate_macro

        mac, _ = generate_macro(small_spec, default_arch)
        report = analyze_hold(mac.flatten(), library)
        assert report.endpoint  # names a real data pin net
