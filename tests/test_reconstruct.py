import sys

from kundunls import double_pole, linalg, simple_pole
from kundunls.spectrum import derive_orbit


def test_point_sample_factorizes_once_per_point(monkeypatch, fig2a, fig4a, fig7a):
    sizes = []
    real = linalg.lu_factor

    def counted(rows):
        sizes.append(len(rows))
        return real(rows)

    # patch every module that bound the name, not only linalg itself
    for name, mod in list(sys.modules.items()):
        if name.startswith("kundunls") and getattr(mod, "lu_factor", None) is real:
            monkeypatch.setattr(mod, "lu_factor", counted)
    points = [(0.0, 0.0), (1.3, -0.4), (-2.5, 0.9)]
    for cfg, module, n in ((fig2a, simple_pole, 2), (fig4a, simple_pole, 4),
                           (fig7a, double_pole, 4)):
        orbit = derive_orbit(cfg, "a")
        sizes.clear()
        for x, t in points:
            assert module.point_sample(orbit, x, t)[1] == "ok"
        assert sizes == [n] * len(points)
