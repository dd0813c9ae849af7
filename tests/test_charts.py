from xml.sax.saxutils import escape as sax_escape

from cyclonids import charts
from cyclonids.charts import bar_chart_svg


def test_markup_characters_escape_as_xml_sax_escapes_them(monkeypatch):
    title = "Salience of <tcp> & 'udp' \"flags\""
    labels = ["a & b", "<tcp>", "x>y<z&&", '"quoted"', "it's", "service=ftp_data"]
    values = [3.0, 1.5, 0.25, 2.0, 0.0, 1.0]
    svg = bar_chart_svg(title, labels, values)
    assert "a &amp; b" in svg and "&lt;tcp&gt;" in svg and "x&gt;y&lt;z&amp;&amp;" in svg
    assert '"quoted"' in svg and "it's" in svg  # text content: quotes stay as they are
    monkeypatch.setattr(charts, "escape", lambda text, quote=False: sax_escape(text))
    assert svg == bar_chart_svg(title, labels, values)
