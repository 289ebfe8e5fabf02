"""The split series' values pinned bit for bit.

(value, first-series terms, second-series terms, tail bound, noise bound)
as float hex, recorded before the split read its beta-free part off a
cached plan: of ``g_series`` and ``gprime_series`` at the rational alphas
of the benchmark's grid with its rho, split at delta = 0, and near 3/2 and
at 0.5 + sqrt2/40 at rho 0.5 as the series decides at each beta; and of
the split at their pairing convergents (3/2 and 53/99), called directly
as ``_split(_plan(...), beta)`` with the checks of a paired split.  Each
is checked cold, every table and plan cleared before the call, and warm,
after every case has filled them.
"""

import math

import pytest

from stablekappa import SeriesReport, Tolerance, g_series, gprime_series, validate
from stablekappa import series as series_module

SQRT2 = math.sqrt(2.0)
BETAS = (0.01, 0.1, 0.5, 0.9, 0.94)
SERIES = {"g": g_series, "gprime": gprime_series}
RHO = {0.3: 0.5, 0.8: 0.25, 1.0: 0.5, 1.5: 2.0 / 3.0, 1.9: 0.5, 2.0: 0.5,
       1.50000001: 0.5, 0.5 + SQRT2 / 40.0: 0.5}

# (alpha, pairing convergent split at directly or None, series): one pin
# per beta of BETAS
PINS = {
    (0.3, None, "g"): (
        ("0x1.ef66a2b7330c6p-4", 5, 16, "0x1.20bbcc007e03dp-38", "0x1.469bfa08b9cd8p-52"),
        ("0x1.b8912ee6ef094p-3", 10, 30, "0x1.d1cfdb11afcabp-37", "0x1.c55cd0d0a647ap-51"),
        ("0x1.3deed38436d1ep-2", 31, 100, "0x1.fa10d37c699bfp-36", "0x1.45bcfb5c5b8aep-49"),
        ("0x1.68813950f0e16p-2", 201, 659, "0x1.3e07a12f4a468p-35", "0x1.4d8689b4e182bp-48"),
        ("0x1.6bcdf72766417p-2", 343, 1122, "0x1.424b4bfb0cc66p-35", "0x1.7c9beb2013d3cp-48"),
    ),
    (0.3, None, "gprime"): (
        ("0x1.9453fb7d2a2fbp+1", 6, 19, "0x1.48db543fb83bep-37", "0x1.7c8b1d1b5f755p-47"),
        ("0x1.05efe787d8cdbp-1", 11, 36, "0x1.034ebb09a2711p-36", "0x1.3267619fd69fcp-48"),
        ("0x1.14e1ac1d495acp-3", 37, 118, "0x1.eca402684a921p-36", "0x1.104e9cb506f4ap-48"),
        ("0x1.50326e70aade2p-4", 253, 816, "0x1.26ecbdbf2f7aap-35", "0x1.d31517bbcabcbp-47"),
        ("0x1.43eb98bd8a84bp-4", 438, 1413, "0x1.35483ca493dabp-35", "0x1.7bd4f1110946cp-46"),
    ),
    (0.8, None, "g"): (
        ("0x1.f84792fc431a6p-7", 5, 5, "0x1.fdc85643c996cp-40", "0x1.a0cdf14bd2e18p-55"),
        ("0x1.133c2c452d5fap-4", 10, 10, "0x1.0e96ac71dd827p-37", "0x1.615adaadbf636p-52"),
        ("0x1.49b478c33e0c4p-3", 31, 33, "0x1.6c3786a90e6a7p-36", "0x1.aeb5777155830p-50"),
        ("0x1.b3c2d91f640ccp-3", 205, 214, "0x1.3658be9080ff6p-35", "0x1.26a3f1f2d254ep-48"),
        ("0x1.bc718a620b1cap-3", 350, 364, "0x1.2e5a5ad42b52ep-35", "0x1.5d0b9a2c827fap-48"),
    ),
    (0.8, None, "gprime"): (
        ("0x1.0d1a7af10ced1p+0", 6, 7, "0x1.193281957d732p-39", "0x1.07d8342c8e6dap-48"),
        ("0x1.95187f394e4a1p-2", 11, 12, "0x1.a62d4f6528f76p-37", "0x1.818377cd49fb9p-49"),
        ("0x1.458761a760ee6p-3", 37, 39, "0x1.1a65d6ca89776p-35", "0x1.06b1353ffba86p-48"),
        ("0x1.b8baf1cd80490p-4", 256, 266, "0x1.383b0734b6744p-35", "0x1.0d2d1fd60c5eep-46"),
        ("0x1.aba82ec827538p-4", 444, 460, "0x1.3dffd3fdc3726p-35", "0x1.b7b1c90a279b2p-46"),
    ),
    (1.0, None, "g"): (
        ("0x1.24b8a21e6e5b7p-6", 5, 0, "0x1.b0f4c35cd501dp-42", "0x1.24bad617b6f10p-55"),
        ("0x1.b7a3e44b2b82dp-4", 10, 0, "0x1.b90c1930bb94dp-40", "0x1.b8d646d1ac44ep-53"),
        ("0x1.40afd54054afap-2", 32, 0, "0x1.01e90c728fd0cp-37", "0x1.57346301365aap-51"),
        ("0x1.c18c474f91ab2p-2", 207, 0, "0x1.b59ce7842033bp-37", "0x1.3aea24d7e554dp-50"),
        ("0x1.cc578d876d0dep-2", 353, 0, "0x1.aa4986b0eec3dp-37", "0x1.5ebe02911380ep-50"),
    ),
    (1.0, None, "gprime"): (
        ("0x1.78816053ce959p+0", 6, 0, "0x1.1777688f1e69bp-39", "0x1.788b040a2d12ep-49"),
        ("0x1.8ce4e2ce0e2bbp-1", 12, 0, "0x1.8199bf64182f6p-40", "0x1.90e732abef48ap-50"),
        ("0x1.818b706320308p-2", 37, 0, "0x1.70f7263dfa5a7p-37", "0x1.0107a042131b3p-50"),
        ("0x1.118f291046ecfp-2", 255, 0, "0x1.930bbf3e1e31bp-37", "0x1.67f243812eb05p-49"),
        ("0x1.0a37cf95bbef6p-2", 441, 0, "0x1.addd29b3efec2p-37", "0x1.1de31506679b5p-48"),
    ),
    (1.5, None, "g"): (
        ("0x1.460d6cccbaa94p-7", 5, 2, "0x1.1aafcfb3ff11cp-40", "0x1.47b0e059d0260p-56"),
        ("0x1.8663f793b5c60p-4", 10, 3, "0x1.a79b924bf079dp-38", "0x1.9af93cd224203p-53"),
        ("0x1.9f323ecbef127p-2", 32, 11, "0x1.8903cf1d0a105p-36", "0x1.193ea7aac6097p-50"),
        ("0x1.48a11293da496p-1", 207, 70, "0x1.2d5fd84de5dfbp-35", "0x1.78e36060438f4p-49"),
        ("0x1.534bd6879bc49p-1", 353, 119, "0x1.347eea17e6a91p-35", "0x1.bcf0cd47380ccp-49"),
    ),
    (1.5, None, "gprime"): (
        ("0x1.faee41e6a51c4p-1", 6, 2, "0x1.72a7e7af159ebp-40", "0x1.00068de3ade4ep-49"),
        ("0x1.d1745d1743d1cp-1", 12, 4, "0x1.f8ec4edf6afd5p-40", "0x1.0295fad4093bap-49"),
        ("0x1.5555555550001p-1", 38, 13, "0x1.89a7d1e97f12dp-36", "0x1.5555555550001p-49"),
        ("0x1.0d79435e4b71dp-1", 259, 87, "0x1.1b54698f6c186p-35", "0x1.50d79435e2902p-47"),
        ("0x1.07eae2f815db4p-1", 448, 151, "0x1.35b2eb6c6dfaep-35", "0x1.12ea01c26a225p-46"),
    ),
    (1.9, None, "g"): (
        ("0x1.462f5db7faaa7p-7", 6, 2, "0x1.7635a46f3ce0ep-38", "0x1.48d075c82703dp-56"),
        ("0x1.822515e2cb3a4p-4", 11, 5, "0x1.246edf8014d33p-37", "0x1.9c6bd5f0931e5p-53"),
        ("0x1.938709be535f8p-2", 34, 16, "0x1.8f09744037d9ep-36", "0x1.1b438a611aaf1p-50"),
        ("0x1.3d353aed2fac6p-1", 224, 105, "0x1.a7edfc3e84a84p-36", "0x1.ad3d62c2aa978p-49"),
        ("0x1.47596c48d8b0dp-1", 380, 178, "0x1.210f0ddebf6b5p-35", "0x1.115960b7b9907p-48"),
    ),
    (1.9, None, "gprime"): (
        ("0x1.fa00525a631c8p-1", 7, 3, "0x1.cb2655a2eb11bp-38", "0x1.00e75df34435dp-49"),
        ("0x1.c8461aa6f0db6p-1", 13, 6, "0x1.5b52164c94639p-37", "0x1.038be3614f744p-49"),
        ("0x1.46d776e330b6fp-1", 39, 19, "0x1.bedbf1658e4ffp-36", "0x1.5b1e6b730150fp-49"),
        ("0x1.003f38a36f70ap-1", 276, 129, "0x1.0307bdc974a52p-35", "0x1.0ff551c614b16p-46"),
        ("0x1.f5b8b94b40c36p-2", 477, 224, "0x1.1c5e16d21da7cp-35", "0x1.f386103011182p-46"),
    ),
    (2.0, None, "g"): (
        ("0x1.460d6cccbaa93p-7", 5, 0, "0x1.ed92df6fb5f49p-41", "0x1.47b0e059d025fp-56"),
        ("0x1.8663f793b5c5dp-4", 10, 0, "0x1.8f2ee83288330p-37", "0x1.9af93cd224200p-53"),
        ("0x1.9f323ecbef126p-2", 32, 0, "0x1.858f998a82104p-37", "0x1.193ea7aac6096p-50"),
        ("0x1.48a11293dc17ap-1", 208, 0, "0x1.895dc49a56302p-36", "0x1.78e36060455a2p-49"),
        ("0x1.534bd687a401cp-1", 353, 0, "0x1.9c13deac921f2p-36", "0x1.bcf0cd473aea6p-49"),
    ),
    (2.0, None, "gprime"): (
        ("0x1.faee41e6a51c1p-1", 6, 0, "0x1.2762d9d07a575p-40", "0x1.00068de3ade4dp-49"),
        ("0x1.d1745d1743d1cp-1", 12, 0, "0x1.8fb37c696979ap-37", "0x1.0295fad4093bap-49"),
        ("0x1.5555555550000p-1", 38, 0, "0x1.7afd0cbf53738p-37", "0x1.5555555550000p-49"),
        ("0x1.0d79435e5dce0p-1", 258, 0, "0x1.9cdc4deff3e80p-36", "0x1.50d79435e3915p-47"),
        ("0x1.07eae2f81f2b0p-1", 447, 0, "0x1.952dbe4732f6ap-36", "0x1.12ea01c26a7b6p-46"),
    ),
    (1.50000001, None, "g"): (
        ("0x1.633a413d7f289p-7", 5, 2, "0x1.8c43abe8ed3a8p-40", "0x1.7a65e5722e773p-56"),
        ("0x1.7f1daa53845e9p-4", 10, 3, "0x1.a03fa1c387551p-37", "0x1.dab6f9c0d0692p-53"),
        ("0x1.68c29be547702p-2", 32, 11, "0x1.447d35d3a2609p-36", "0x1.38d330d72ea36p-50"),
        ("0x1.1160ffc8b8f5fp-1", 211, 72, "0x1.32533b375282ep-35", "0x1.76aefe62bb14ap-49"),
        ("0x1.196a6b0922878p-1", 359, 122, "0x1.30484b0084478p-35", "0x1.b2124d0b6ca0ep-49"),
    ),
    (1.50000001, None, "gprime"): (
        ("0x1.0c81ba61b46b5p+0", 6, 2, "0x1.729b7cb392fabp-39", "0x1.27a8def532938p-49"),
        ("0x1.a938bc6d4fda4p-1", 12, 4, "0x1.f59d5641f999fp-39", "0x1.2a81742ded6c8p-49"),
        ("0x1.0c6c963e47b41p-1", 38, 13, "0x1.4be4805415049p-36", "0x1.5e28948c516e6p-49"),
        ("0x1.968f165662203p-2", 263, 89, "0x1.20a32b885565ep-35", "0x1.27265000797e6p-47"),
        ("0x1.8d32f859ad588p-2", 453, 155, "0x1.3b5caac910e22p-35", "0x1.de4e67a8165ccp-47"),
    ),
    (1.50000001, (3, 2), "g"): (
        ("0x1.633a413d7f289p-7", 5, 2, "0x1.8c43abe8ed3a8p-40", "0x1.7a65e5722e773p-56"),
        ("0x1.7f1daa53845e9p-4", 10, 3, "0x1.a03fa1c387551p-37", "0x1.dab6f9c0d0692p-53"),
        ("0x1.68c29be547702p-2", 32, 11, "0x1.447d35d3a2609p-36", "0x1.38d330d72ea36p-50"),
        ("0x1.1160ffc8b8f5fp-1", 211, 72, "0x1.32533b375282ep-35", "0x1.76aefe62bb14ap-49"),
        ("0x1.196a6b0922878p-1", 359, 122, "0x1.30484b0084478p-35", "0x1.b2124d0b6ca0ep-49"),
    ),
    (1.50000001, (3, 2), "gprime"): (
        ("0x1.0c81ba61b46b5p+0", 6, 2, "0x1.729b7cb392fabp-39", "0x1.27a8def532938p-49"),
        ("0x1.a938bc6d4fda4p-1", 12, 4, "0x1.f59d5641f999fp-39", "0x1.2a81742ded6c8p-49"),
        ("0x1.0c6c963e47b41p-1", 38, 13, "0x1.4be4805415049p-36", "0x1.5e28948c516e6p-49"),
        ("0x1.968f165662203p-2", 263, 89, "0x1.20a32b885565ep-35", "0x1.27265000797e6p-47"),
        ("0x1.8d32f859ad588p-2", 453, 155, "0x1.3b5caac910e22p-35", "0x1.de4e67a8165ccp-47"),
    ),
    (0.5353553390593274, None, "g"): (
        ("0x1.c33c3986a4ee7p-5", 5, 10, "0x1.745cb9ad356b7p-36", "0x1.47bcedb6328fap-53"),
        ("0x1.433b8e46352c2p-3", 11, 21, "0x1.46d5346d37b42p-35", "0x1.a56bb68dbdd96p-51"),
        ("0x1.3433a658c9fb8p-2", 39, 75, "0x1.2e0d9a5fffa6fp-34", "0x1.af72127de5c5dp-49"),
        ("0x1.7d3bd6c77c564p-2", 282, 544, "0x1.a22b458ef74a8p-34", "0x1.0d273b6931894p-47"),
        ("0x1.83138bcb483d0p-2", 493, 950, "0x1.b282f6e1ee5b4p-34", "0x1.699266325c33ep-47"),
    ),
    (0.5353553390593274, None, "gprime"): (
        ("0x1.53ed038c7ecb1p+1", 6, 13, "0x1.dd81d14a331bdp-35", "0x1.4a062b0bf0807p-47"),
        ("0x1.596284e2dbeb8p-1", 13, 25, "0x1.8d5c8adf1b06ep-35", "0x1.a06edac8d4e02p-48"),
        ("0x1.cba939785b780p-3", 45, 87, "0x1.9b76239d25fe9p-34", "0x1.bb6eb84f64863p-48"),
        ("0x1.29051646ea253p-3", 339, 651, "0x1.b423fcd3fb720p-34", "0x1.412a11540766cp-45"),
        ("0x1.1f5bdf2708880p-3", 600, 1149, "0x1.accd4eed63955p-34", "0x1.06312677e91c3p-43"),
    ),
    (0.5353553390593274, (53, 99), "g"): (
        ("0x1.c33c3986a4ee7p-5", 6, 10, "0x1.1bc0bb80f3facp-36", "0x1.47bcedb6328fap-53"),
        ("0x1.433b8e46352c2p-3", 12, 21, "0x1.5b51ef1c0b16cp-37", "0x1.a56bb68dbdd96p-51"),
        ("0x1.3433a658ca094p-2", 38, 70, "0x1.27b6586a526a7p-36", "0x1.af72127de5a2ap-49"),
        ("0x1.7d3bd6c77d08cp-2", 240, 457, "0x1.af5860dff2195p-36", "0x1.08d2e0220be9ep-47"),
        ("0x1.83138bcb3d56bp-2", 408, 778, "0x1.17f95e0fd87a4p-35", "0x1.3e2d6d726e186p-47"),
    ),
    (0.5353553390593274, (53, 99), "gprime"): (
        ("0x1.53ed038c8122ap+1", 8, 13, "0x1.2198b7c357de6p-38", "0x1.4a062b0bf1ac4p-47"),
        ("0x1.596284e2dbeb8p-1", 14, 25, "0x1.4dd2462bef6bbp-37", "0x1.a06edac8d4e02p-48"),
        ("0x1.cba939785b661p-3", 44, 82, "0x1.2823b15aadf8ep-36", "0x1.bb6eb84f6453ap-48"),
        ("0x1.29051646e70f7p-3", 293, 555, "0x1.b6b4b09986da6p-36", "0x1.016c7d72cc918p-45"),
        ("0x1.1f5bdf2710b68p-3", 507, 960, "0x1.e4942817b9aa0p-36", "0x1.b4e57971c750ap-45"),
    ),
}


def _outcome(alpha, pair, name, beta):
    if pair:
        tol = Tolerance()
        plan = series_module._plan(*alpha.as_integer_ratio(), *pair, RHO[alpha],
                                   name == "gprime", tol.abs_tol, tol.max_terms)
        rep = SeriesReport(*series_module._split(plan, beta))
    else:
        rep = SERIES[name](validate(alpha, RHO[alpha]), beta)
    return (rep.value.hex(), rep.terms_first_series, rep.terms_second_series,
            rep.tail_bound.hex(), rep.noise_bound.hex())


def test_split_pins_cover_every_case():
    assert set(RHO) == {alpha for alpha, _, _ in PINS}
    assert all(len(pins) == len(BETAS) for pins in PINS.values())


@pytest.mark.parametrize("warm", [False, True])
def test_split_values_bit_identical_to_their_pins(warm):
    series_module._plan.cache_clear()
    series_module._family.cache_clear()
    if warm:
        for alpha, pair, name in PINS:
            for beta in BETAS:
                _outcome(alpha, pair, name, beta)
    for (alpha, pair, name), pins in PINS.items():
        for beta, pin in zip(BETAS, pins):
            if not warm:
                series_module._plan.cache_clear()
                series_module._family.cache_clear()
            assert _outcome(alpha, pair, name, beta) == pin, (alpha, pair, name, beta)
