"""The plan and the value of g and g' pinned in every beta region.

At three (alpha, rho), sqrt 2 with no Doney case, the Doney case 4/5 and
the rational 1/2; for g and g'; automatic and each forced method; at betas
below the band, at 0.95, 1.0 and 1.05, inside the band, in the sliver
[1.05, 1/0.95) that is planned in the band at 1/beta, at 1/0.95 itself
and reflected beyond it.  Each pin is the plan's steps as (method, reason,
runnable), or the type of the error the plan raises, and the result as
(value, bound) in float hex with its method and count, or the type of the
error raised.  They were recorded while the plan was still a generator
that looked up what it needed as it went, the series rows again when
the series began to stop at one contour cut, the g' rows at 4/5 when
the Doney closed form began to cover g', and the g' series values when g'
began to sum at the powers of beta of g and divide by beta once (their
bounds unchanged), the quadrature rows again when quadrature became
the trapezoid rule on the Mellin-Barnes line, and the rows from 0.95 to
1.06 again when the line, read off its beta-free table, began to run
first above beta 0.5: every value, by whichever
method, lies within its bound of the 30-digit integral
(``tests/oracles.g_mpmath`` or ``gprime_mpmath``), stored as float hex
with its error estimate in ``ORACLE``.  Each case is checked cold, the
plan cache cleared before the call, and warm, after every case has
filled it.  After an intended
change, print both tables from the current tree with

    PYTHONPATH=src python tests/test_plan_pins.py

and name every changed pin in CHANGES.md.
"""

import importlib
import itertools
import math
import sys

import pytest

from stablekappa import MethodChoice, g_any_beta, gprime_any_beta, validate

# the package re-exports the function kappa under the submodule's name
kappa_module = importlib.import_module("stablekappa.kappa")

SQRT2 = math.sqrt(2.0)
ALPHAS = ((SQRT2, 0.5), (0.8, 0.25), (0.5, 0.3))
BETAS = (0.3, 0.95, 0.97, 1.0, 1.03, 1.05, 1.051, 1 / 0.95, 1.06, 2.5)

# short name -> (method, reason, runnable) of one plan step
STEPS = {
    'doney no_case':
        ('doney', 'skipped: no (k, l) with rho + k = l/alpha', False),
    'series':
        ('series', 'generic, paired or split as alpha and beta need', True),
    'quadrature last':
        ('quadrature', 'the line, last: it has no small divisors', True),
    'quadrature band':
        ('quadrature', '0.95 < beta < 1.05, where both series slow down', True),
    'series skip_band':
        ('series', 'skipped: 0.95 < beta < 1.05, where quadrature runs', False),
    'quadrature band reflected':
        ('quadrature', '0.95 < beta < 1.05, where both series slow down'
         '; at 1/beta, reflected', True),
    'series reflected':
        ('series', 'generic, paired or split as alpha and beta need'
         '; at 1/beta, reflected', True),
    'quadrature last reflected':
        ('quadrature', 'the line, last: it has no small divisors; at 1/beta, reflected', True),
    'quadrature zone':
        ('quadrature', "0.5 < beta < 2, where the line's table costs least", True),
    'quadrature zone reflected':
        ('quadrature', "0.5 < beta < 2, where the line's table costs least"
         '; at 1/beta, reflected', True),
    'doney case (1, 1)':
        ('doney', 'Doney case (k, l) = (1, 1)', True),
    'doney skip_band':
        ('doney', 'skipped: 0.95 < beta < 1.05, where quadrature runs', False),
    'doney case (1, 1) reflected':
        ('doney', 'Doney case (k, l) = (1, 1); at 1/beta, reflected', True),
}
PINS = {
    (SQRT2, 0.5, False, 'auto'): (
        (('doney no_case', 'series', 'quadrature last'),
         ('0x1.dfed3906688c9p-3', '0x1.634851cc43b8cp-36', 'series', 32)),
        (('doney no_case', 'quadrature zone', 'series'),
         ('0x1.11e928ce6b5c7p-1', '0x1.ef4f42212eaf8p-37', 'quadrature', 88)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.159d6d92e1295p-1', '0x1.f28956c9045cep-37', 'quadrature', 88)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.1b1790c144752p-1', '0x1.f74e4b2244ac4p-37', 'quadrature', 88)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.207a2c7c41272p-1', '0x1.fbfe6ea0ac746p-37', 'quadrature', 88)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.2404977f1d27fp-1', '0x1.efbeaf87d822fp-37', 'quadrature', 88)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.2431a6fe61f39p-1', '0x1.ef99140ecd220p-37', 'quadrature', 88)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.247b1e8fd1f88p-1', '0x1.ef5bd40da8eecp-37', 'quadrature', 88)),
        (('doney no_case', 'quadrature zone reflected', 'series reflected'),
         ('0x1.25c6182e0f243p-1', '0x1.ee48e3ed749f0p-37', 'quadrature', 88)),
        (('doney no_case', 'series reflected', 'quadrature last reflected'),
         ('0x1.e14599500d884p-1', '0x1.78a031de5e9cap-36', 'series', 39)),
    ),
    (SQRT2, 0.5, False, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.159d6d92e1295p-1', '0x1.f28956c9045cep-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.1b1790c144752p-1', '0x1.f74e4b2244ac4p-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.207a2c7c41272p-1', '0x1.fbfe6ea0ac746p-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.2404977f1d27fp-1', '0x1.efbeaf87d822fp-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.2431a6fe61f39p-1', '0x1.ef99140ecd220p-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.247b1e8fd1f88p-1', '0x1.ef5bd40da8eecp-37', 'quadrature', 88)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (SQRT2, 0.5, False, 'series'): (
        (('series',),
         ('0x1.dfed3906688c9p-3', '0x1.634851cc43b8cp-36', 'series', 32)),
        (('series',),
         ('0x1.11e928ce77d20p-1', '0x1.733b26b0b8a4cp-36', 'series', 623)),
        (('quadrature band',),
         ('0x1.159d6d92e1295p-1', '0x1.f28956c9045cep-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.1b1790c144752p-1', '0x1.f74e4b2244ac4p-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.207a2c7c41272p-1', '0x1.fbfe6ea0ac746p-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.2404977f1d27fp-1', '0x1.efbeaf87d822fp-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.2431a6fe61f39p-1', '0x1.ef99140ecd220p-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.247b1e8fd1f88p-1', '0x1.ef5bd40da8eecp-37', 'quadrature', 88)),
        (('series reflected',),
         ('0x1.25c6182e1c5ccp-1', '0x1.62aadd1726a52p-36', 'series', 553)),
        (('series reflected',),
         ('0x1.e14599500d884p-1', '0x1.78a031de5e9cap-36', 'series', 39)),
    ),
    (SQRT2, 0.5, False, 'quadrature'): (
        (('quadrature last',),
         ('0x1.dfed39065eb47p-3', '0x1.86403df5214b8p-36', 'quadrature', 83)),
        (('quadrature zone',),
         ('0x1.11e928ce6b5c7p-1', '0x1.ef4f42212eaf8p-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.159d6d92e1295p-1', '0x1.f28956c9045cep-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.1b1790c144752p-1', '0x1.f74e4b2244ac4p-37', 'quadrature', 88)),
        (('quadrature band',),
         ('0x1.207a2c7c41272p-1', '0x1.fbfe6ea0ac746p-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.2404977f1d27fp-1', '0x1.efbeaf87d822fp-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.2431a6fe61f39p-1', '0x1.ef99140ecd220p-37', 'quadrature', 88)),
        (('quadrature band reflected',),
         ('0x1.247b1e8fd1f88p-1', '0x1.ef5bd40da8eecp-37', 'quadrature', 88)),
        (('quadrature zone reflected',),
         ('0x1.25c6182e0f243p-1', '0x1.ee48e3ed749f0p-37', 'quadrature', 88)),
        (('quadrature last reflected',),
         ('0x1.e14599501956ap-1', '0x1.a70ffdca29762p-36', 'quadrature', 83)),
    ),
    (SQRT2, 0.5, True, 'auto'): (
        (('doney no_case', 'series', 'quadrature last'),
         ('0x1.380bb5d40c588p-1', '0x1.7cb6f8e87f40bp-36', 'series', 37)),
        (('doney no_case', 'quadrature zone', 'series'),
         ('0x1.7492afeb881c5p-2', '0x1.fc78bced90b47p-37', 'quadrature', 84)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.7047abcd9f923p-2', '0x1.f545474ad27fbp-37', 'quadrature', 84)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.6a09e667e8612p-2', '0x1.eaf07e59f0b29p-37', 'quadrature', 84)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.6405e3546bf06p-2', '0x1.e121e4098fd5cp-37', 'quadrature', 84)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.6021ac13c7fecp-2', '0x1.cc736210ea476p-37', 'quadrature', 84)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.5ff07afac701ep-2', '0x1.cbdfec2aeb655p-37', 'quadrature', 84)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.5fa058489f245p-2', '0x1.caf0087aeeaf1p-37', 'quadrature', 84)),
        (('doney no_case', 'quadrature zone reflected', 'series reflected'),
         ('0x1.5e385b7370035p-2', '0x1.c6bf6c0916cf0p-37', 'quadrature', 84)),
        (('doney no_case', 'series reflected', 'quadrature last reflected'),
         ('0x1.8fbe30cd5c174p-3', '0x1.fbb631e82097bp-40', 'series', 49)),
    ),
    (SQRT2, 0.5, True, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.7047abcd9f923p-2', '0x1.f545474ad27fbp-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.6a09e667e8612p-2', '0x1.eaf07e59f0b29p-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.6405e3546bf06p-2', '0x1.e121e4098fd5cp-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.6021ac13c7fecp-2', '0x1.cc736210ea476p-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.5ff07afac701ep-2', '0x1.cbdfec2aeb655p-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.5fa058489f245p-2', '0x1.caf0087aeeaf1p-37', 'quadrature', 84)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (SQRT2, 0.5, True, 'series'): (
        (('series',),
         ('0x1.380bb5d40c588p-1', '0x1.7cb6f8e87f40bp-36', 'series', 37)),
        (('series',),
         ('0x1.7492afebaddcep-2', '0x1.71796af6f10bfp-36', 'series', 821)),
        (('quadrature band',),
         ('0x1.7047abcd9f923p-2', '0x1.f545474ad27fbp-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.6a09e667e8612p-2', '0x1.eaf07e59f0b29p-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.6405e3546bf06p-2', '0x1.e121e4098fd5cp-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.6021ac13c7fecp-2', '0x1.cc736210ea476p-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.5ff07afac701ep-2', '0x1.cbdfec2aeb655p-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.5fa058489f245p-2', '0x1.caf0087aeeaf1p-37', 'quadrature', 84)),
        (('series reflected',),
         ('0x1.5e385b734e07bp-2', '0x1.535ef7a35206ep-36', 'series', 722)),
        (('series reflected',),
         ('0x1.8fbe30cd5c174p-3', '0x1.fbb631e82097bp-40', 'series', 49)),
    ),
    (SQRT2, 0.5, True, 'quadrature'): (
        (('quadrature last',),
         ('0x1.380bb5d415787p-1', '0x1.94750ef8323c0p-36', 'quadrature', 86)),
        (('quadrature zone',),
         ('0x1.7492afeb881c5p-2', '0x1.fc78bced90b47p-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.7047abcd9f923p-2', '0x1.f545474ad27fbp-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.6a09e667e8612p-2', '0x1.eaf07e59f0b29p-37', 'quadrature', 84)),
        (('quadrature band',),
         ('0x1.6405e3546bf06p-2', '0x1.e121e4098fd5cp-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.6021ac13c7fecp-2', '0x1.cc736210ea476p-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.5ff07afac701ep-2', '0x1.cbdfec2aeb655p-37', 'quadrature', 84)),
        (('quadrature band reflected',),
         ('0x1.5fa058489f245p-2', '0x1.caf0087aeeaf1p-37', 'quadrature', 84)),
        (('quadrature zone reflected',),
         ('0x1.5e385b7370035p-2', '0x1.c6bf6c0916cf0p-37', 'quadrature', 84)),
        (('quadrature last reflected',),
         ('0x1.8fbe30cd64a44p-3', '0x1.f7bfd1b97c9d1p-39', 'quadrature', 85)),
    ),
    (0.8, 0.25, False, 'auto'): (
        (('doney case (1, 1)', 'series', 'quadrature last'),
         ('0x1.fc31aa21dd108p-4', '0x1.1fc31aa21dd10p-48', 'doney', 2)),
        (('doney case (1, 1)', 'quadrature zone', 'series'),
         ('0x1.be92ee3f84e30p-3', '0x1.37d25dc7f09c6p-48', 'doney', 2)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.c2c9d7b925838p-3', '0x1.6cbeefcff00abp-36', 'quadrature', 59)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.c8ff7c79a3ca8p-3', '0x1.6f55616be879dp-36', 'quadrature', 59)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.cf141704b5051p-3', '0x1.71de9b5084f93p-36', 'quadrature', 59)),
        (('quadrature band reflected', 'doney skip_band', 'series skip_band'),
         ('0x1.d310375b6be61p-3', '0x1.6b3859b1c2928p-36', 'quadrature', 59)),
        (('quadrature band reflected', 'doney skip_band', 'series skip_band'),
         ('0x1.d342dcbcd9b72p-3', '0x1.6b23e0908f969p-36', 'quadrature', 59)),
        (('quadrature band reflected', 'doney skip_band', 'series skip_band'),
         ('0x1.d3956c2289b04p-3', '0x1.6b028770951f0p-36', 'quadrature', 59)),
        (('doney case (1, 1) reflected', 'quadrature zone reflected', 'series reflected'),
         ('0x1.d50927c6e0105p-3', '0x1.864db0341efc4p-48', 'doney', 2)),
        (('doney case (1, 1) reflected', 'series reflected', 'quadrature last reflected'),
         ('0x1.4f13e3f40938ap-2', '0x1.79cc35badb142p-48', 'doney', 2)),
    ),
    (0.8, 0.25, False, 'doney'): (
        (('doney case (1, 1)',),
         ('0x1.fc31aa21dd108p-4', '0x1.1fc31aa21dd10p-48', 'doney', 2)),
        (('doney case (1, 1)',),
         ('0x1.be92ee3f84e30p-3', '0x1.37d25dc7f09c6p-48', 'doney', 2)),
        (('quadrature band',),
         ('0x1.c2c9d7b925838p-3', '0x1.6cbeefcff00abp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.c8ff7c79a3ca8p-3', '0x1.6f55616be879dp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.cf141704b5051p-3', '0x1.71de9b5084f93p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d310375b6be61p-3', '0x1.6b3859b1c2928p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d342dcbcd9b72p-3', '0x1.6b23e0908f969p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d3956c2289b04p-3', '0x1.6b028770951f0p-36', 'quadrature', 59)),
        (('doney case (1, 1) reflected',),
         ('0x1.d50927c6e0105p-3', '0x1.864db0341efc4p-48', 'doney', 2)),
        (('doney case (1, 1) reflected',),
         ('0x1.4f13e3f40938ap-2', '0x1.79cc35badb142p-48', 'doney', 2)),
    ),
    (0.8, 0.25, False, 'series'): (
        (('series',),
         ('0x1.fc31aa2209e34p-4', '0x1.4fb32849636a2p-36', 'series', 37)),
        (('series',),
         ('0x1.be92ee3fb253ap-3', '0x1.3cace4411821bp-35', 'series', 695)),
        (('quadrature band',),
         ('0x1.c2c9d7b925838p-3', '0x1.6cbeefcff00abp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.c8ff7c79a3ca8p-3', '0x1.6f55616be879dp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.cf141704b5051p-3', '0x1.71de9b5084f93p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d310375b6be61p-3', '0x1.6b3859b1c2928p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d342dcbcd9b72p-3', '0x1.6b23e0908f969p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d3956c2289b04p-3', '0x1.6b028770951f0p-36', 'quadrature', 59)),
        (('series reflected',),
         ('0x1.d50927c70ec9dp-3', '0x1.4601b3c863372p-35', 'series', 615)),
        (('series reflected',),
         ('0x1.4f13e3f40fd30p-2', '0x1.cb3beede4ee57p-37', 'series', 47)),
    ),
    (0.8, 0.25, False, 'quadrature'): (
        (('quadrature last',),
         ('0x1.fc31aa21d1ea9p-4', '0x1.a4d23ed48c6cap-36', 'quadrature', 57)),
        (('quadrature zone',),
         ('0x1.be92ee3f80026p-3', '0x1.6afd9da5df0dcp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.c2c9d7b925838p-3', '0x1.6cbeefcff00abp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.c8ff7c79a3ca8p-3', '0x1.6f55616be879dp-36', 'quadrature', 59)),
        (('quadrature band',),
         ('0x1.cf141704b5051p-3', '0x1.71de9b5084f93p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d310375b6be61p-3', '0x1.6b3859b1c2928p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d342dcbcd9b72p-3', '0x1.6b23e0908f969p-36', 'quadrature', 59)),
        (('quadrature band reflected',),
         ('0x1.d3956c2289b04p-3', '0x1.6b028770951f0p-36', 'quadrature', 59)),
        (('quadrature zone reflected',),
         ('0x1.d50927c6db59dp-3', '0x1.6a6cc64395ebep-36', 'quadrature', 59)),
        (('quadrature last reflected',),
         ('0x1.4f13e3f40a6e0p-2', '0x1.71a4a55d0c77dp-36', 'quadrature', 58)),
    ),
    (0.8, 0.25, True, 'auto'): (
        (('doney case (1, 1)', 'series', 'quadrature last'),
         ('0x1.bd752d8fe813bp-3', '0x1.a565811fb3ddfp-47', 'doney', 2)),
        (('doney case (1, 1)', 'quadrature zone', 'series'),
         ('0x1.a8861275c457ap-4', '0x1.41a8861275c41p-43', 'doney', 2)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.a268d889ca7c4p-4', '0x1.ed19784bb45c9p-37', 'quadrature', 61)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.999999997dec5p-4', '0x1.e20193ef1837dp-37', 'quadrature', 61)),
        (('quadrature band', 'doney skip_band', 'series skip_band'),
         ('0x1.91323afb77c3fp-4', '0x1.d77d264033c52p-37', 'quadrature', 61)),
        (('quadrature band reflected', 'doney skip_band', 'series skip_band'),
         ('0x1.8bce017681e75p-4', '0x1.c5761d47edae8p-37', 'quadrature', 61)),
        (('quadrature band reflected', 'doney skip_band', 'series skip_band'),
         ('0x1.8b8a153710df3p-4', '0x1.c4ebd4e36699bp-37', 'quadrature', 61)),
        (('quadrature band reflected', 'doney skip_band', 'series skip_band'),
         ('0x1.8b1b7adc3e867p-4', '0x1.c40ada393227ap-37', 'quadrature', 61)),
        (('doney case (1, 1) reflected', 'quadrature zone reflected', 'series reflected'),
         ('0x1.892b54d59be45p-4', '0x1.fe7ea546e92ccp-44', 'doney', 2)),
        (('doney case (1, 1) reflected', 'series reflected', 'quadrature last reflected'),
         ('0x1.9fbd0684854a3p-5', '0x1.b583e9794aceep-49', 'doney', 2)),
    ),
    (0.8, 0.25, True, 'doney'): (
        (('doney case (1, 1)',),
         ('0x1.bd752d8fe813bp-3', '0x1.a565811fb3ddfp-47', 'doney', 2)),
        (('doney case (1, 1)',),
         ('0x1.a8861275c457ap-4', '0x1.41a8861275c41p-43', 'doney', 2)),
        (('quadrature band',),
         ('0x1.a268d889ca7c4p-4', '0x1.ed19784bb45c9p-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.999999997dec5p-4', '0x1.e20193ef1837dp-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.91323afb77c3fp-4', '0x1.d77d264033c52p-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8bce017681e75p-4', '0x1.c5761d47edae8p-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8b8a153710df3p-4', '0x1.c4ebd4e36699bp-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8b1b7adc3e867p-4', '0x1.c40ada393227ap-37', 'quadrature', 61)),
        (('doney case (1, 1) reflected',),
         ('0x1.892b54d59be45p-4', '0x1.fe7ea546e92ccp-44', 'doney', 2)),
        (('doney case (1, 1) reflected',),
         ('0x1.9fbd0684854a3p-5', '0x1.b583e9794aceep-49', 'doney', 2)),
    ),
    (0.8, 0.25, True, 'series'): (
        (('series',),
         ('0x1.bd752d8faad4dp-3', '0x1.051f21a3d4d67p-35', 'series', 42)),
        (('series',),
         ('0x1.a88612761abfap-4', '0x1.2e0eec1035955p-35', 'series', 927)),
        (('quadrature band',),
         ('0x1.a268d889ca7c4p-4', '0x1.ed19784bb45c9p-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.999999997dec5p-4', '0x1.e20193ef1837dp-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.91323afb77c3fp-4', '0x1.d77d264033c52p-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8bce017681e75p-4', '0x1.c5761d47edae8p-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8b8a153710df3p-4', '0x1.c4ebd4e36699bp-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8b1b7adc3e867p-4', '0x1.c40ada393227ap-37', 'quadrature', 61)),
        (('series reflected',),
         ('0x1.892b54d54bbc0p-4', '0x1.16e47fba49bdap-35', 'series', 815)),
        (('series reflected',),
         ('0x1.9fbd0684786d1p-5', '0x1.ba2a23a58a7f0p-39', 'series', 55)),
    ),
    (0.8, 0.25, True, 'quadrature'): (
        (('quadrature last',),
         ('0x1.bd752d8ff6fefp-3', '0x1.822b8dbb14e10p-36', 'quadrature', 63)),
        (('quadrature zone',),
         ('0x1.a88612759fc5ep-4', '0x1.f4d70c4401b06p-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.a268d889ca7c4p-4', '0x1.ed19784bb45c9p-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.999999997dec5p-4', '0x1.e20193ef1837dp-37', 'quadrature', 61)),
        (('quadrature band',),
         ('0x1.91323afb77c3fp-4', '0x1.d77d264033c52p-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8bce017681e75p-4', '0x1.c5761d47edae8p-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8b8a153710df3p-4', '0x1.c4ebd4e36699bp-37', 'quadrature', 61)),
        (('quadrature band reflected',),
         ('0x1.8b1b7adc3e867p-4', '0x1.c40ada393227ap-37', 'quadrature', 61)),
        (('quadrature zone reflected',),
         ('0x1.892b54d5bcf0fp-4', '0x1.c01c9a3407b1fp-37', 'quadrature', 61)),
        (('quadrature last reflected',),
         ('0x1.9fbd068471463p-5', '0x1.f0b57536e9b46p-39', 'quadrature', 62)),
    ),
    (0.5, 0.3, False, 'auto'): (
        (('doney no_case', 'series', 'quadrature last'),
         ('0x1.3ca998eb81d95p-3', '0x1.4504fa608bd5fp-35', 'series', 34)),
        (('doney no_case', 'quadrature zone', 'series'),
         ('0x1.d5d0bd46d983bp-3', '0x1.64d4829709a6cp-36', 'quadrature', 71)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.d8fcb0e8d42fap-3', '0x1.65def1530814ap-36', 'quadrature', 71)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.dda66e713deffp-3', '0x1.676679ce8e310p-36', 'quadrature', 71)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.e23476dcbc41dp-3', '0x1.68e4bd478f191p-36', 'quadrature', 71)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.e52f1c5168c37p-3', '0x1.64f968dffc679p-36', 'quadrature', 71)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.e554f156507b1p-3', '0x1.64ed41c4da8a0p-36', 'quadrature', 71)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.e5929bb120c60p-3', '0x1.64d97560577f5p-36', 'quadrature', 71)),
        (('doney no_case', 'quadrature zone reflected', 'series reflected'),
         ('0x1.e6a82a85d97afp-3', '0x1.648080c5b8bb2p-36', 'quadrature', 71)),
        (('doney no_case', 'series reflected', 'quadrature last reflected'),
         ('0x1.3c291d4068a6bp-2', '0x1.c8586b7dbf057p-36', 'series', 45)),
    ),
    (0.5, 0.3, False, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.d8fcb0e8d42fap-3', '0x1.65def1530814ap-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.dda66e713deffp-3', '0x1.676679ce8e310p-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.e23476dcbc41dp-3', '0x1.68e4bd478f191p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e52f1c5168c37p-3', '0x1.64f968dffc679p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e554f156507b1p-3', '0x1.64ed41c4da8a0p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e5929bb120c60p-3', '0x1.64d97560577f5p-36', 'quadrature', 71)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (0.5, 0.3, False, 'series'): (
        (('series',),
         ('0x1.3ca998eb81d95p-3', '0x1.4504fa608bd5fp-35', 'series', 34)),
        (('series',),
         ('0x1.d5d0bd4703f6cp-3', '0x1.47ed8874000f3p-35', 'series', 692)),
        (('quadrature band',),
         ('0x1.d8fcb0e8d42fap-3', '0x1.65def1530814ap-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.dda66e713deffp-3', '0x1.676679ce8e310p-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.e23476dcbc41dp-3', '0x1.68e4bd478f191p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e52f1c5168c37p-3', '0x1.64f968dffc679p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e554f156507b1p-3', '0x1.64ed41c4da8a0p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e5929bb120c60p-3', '0x1.64d97560577f5p-36', 'quadrature', 71)),
        (('series reflected',),
         ('0x1.e6a82a8622152p-3', '0x1.4060f92640dcep-35', 'series', 614)),
        (('series reflected',),
         ('0x1.3c291d4068a6bp-2', '0x1.c8586b7dbf057p-36', 'series', 45)),
    ),
    (0.5, 0.3, False, 'quadrature'): (
        (('quadrature last',),
         ('0x1.3ca998ebc5d32p-3', '0x1.a7e3b17976934p-36', 'quadrature', 69)),
        (('quadrature zone',),
         ('0x1.d5d0bd46d983bp-3', '0x1.64d4829709a6cp-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.d8fcb0e8d42fap-3', '0x1.65def1530814ap-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.dda66e713deffp-3', '0x1.676679ce8e310p-36', 'quadrature', 71)),
        (('quadrature band',),
         ('0x1.e23476dcbc41dp-3', '0x1.68e4bd478f191p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e52f1c5168c37p-3', '0x1.64f968dffc679p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e554f156507b1p-3', '0x1.64ed41c4da8a0p-36', 'quadrature', 71)),
        (('quadrature band reflected',),
         ('0x1.e5929bb120c60p-3', '0x1.64d97560577f5p-36', 'quadrature', 71)),
        (('quadrature zone reflected',),
         ('0x1.e6a82a85d97afp-3', '0x1.648080c5b8bb2p-36', 'quadrature', 71)),
        (('quadrature last reflected',),
         ('0x1.3c291d4051f9cp-2', '0x1.76faaa8fc278ap-36', 'quadrature', 70)),
    ),
    (0.5, 0.3, True, 'auto'): (
        (('doney no_case', 'series', 'quadrature last'),
         ('0x1.7ccde6e64c1b2p-3', '0x1.1461bce756d2ap-35', 'series', 41)),
        (('doney no_case', 'quadrature zone', 'series'),
         ('0x1.3fc37accb7e22p-4', '0x1.cceb0efa86b6bp-37', 'quadrature', 73)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.3a9abf3a67f49p-4', '0x1.c4d8e3065b0bep-37', 'quadrature', 73)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.3333333318a55p-4', '0x1.b94de0b6eb2aep-37', 'quadrature', 73)),
        (('quadrature band', 'doney no_case', 'series skip_band'),
         ('0x1.2c2b21c6d9d05p-4', '0x1.ae631dee7c01ap-37', 'quadrature', 73)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.27ac7d692ad57p-4', '0x1.a136a2bda8ba3p-37', 'quadrature', 73)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.2773f3316b480p-4', '0x1.a0c19523e04c8p-37', 'quadrature', 73)),
        (('quadrature band reflected', 'doney no_case', 'series skip_band'),
         ('0x1.2717e64b14ecfp-4', '0x1.a0031ddd68e2dp-37', 'quadrature', 73)),
        (('doney no_case', 'quadrature zone reflected', 'series reflected'),
         ('0x1.257b3c1b373e3p-4', '0x1.9caed4aeb94e1p-37', 'quadrature', 73)),
        (('doney no_case', 'series reflected', 'quadrature last reflected'),
         ('0x1.261bc322ca174p-5', '0x1.0d00e9b8f0036p-38', 'series', 54)),
    ),
    (0.5, 0.3, True, 'doney'): (
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        (('quadrature band',),
         ('0x1.3a9abf3a67f49p-4', '0x1.c4d8e3065b0bep-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.3333333318a55p-4', '0x1.b94de0b6eb2aep-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.2c2b21c6d9d05p-4', '0x1.ae631dee7c01ap-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.27ac7d692ad57p-4', '0x1.a136a2bda8ba3p-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.2773f3316b480p-4', '0x1.a0c19523e04c8p-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.2717e64b14ecfp-4', '0x1.a0031ddd68e2dp-37', 'quadrature', 73)),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
        ('MethodNotApplicableError',
         'MethodNotApplicableError'),
    ),
    (0.5, 0.3, True, 'series'): (
        (('series',),
         ('0x1.7ccde6e64c1b2p-3', '0x1.1461bce756d2ap-35', 'series', 41)),
        (('series',),
         ('0x1.3fc37acdc1397p-4', '0x1.47e3ef6ec64a1p-35', 'series', 922)),
        (('quadrature band',),
         ('0x1.3a9abf3a67f49p-4', '0x1.c4d8e3065b0bep-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.3333333318a55p-4', '0x1.b94de0b6eb2aep-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.2c2b21c6d9d05p-4', '0x1.ae631dee7c01ap-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.27ac7d692ad57p-4', '0x1.a136a2bda8ba3p-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.2773f3316b480p-4', '0x1.a0c19523e04c8p-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.2717e64b14ecfp-4', '0x1.a0031ddd68e2dp-37', 'quadrature', 73)),
        (('series reflected',),
         ('0x1.257b3c1ad5be2p-4', '0x1.2227723ecb6cap-35', 'series', 812)),
        (('series reflected',),
         ('0x1.261bc322ca174p-5', '0x1.0d00e9b8f0036p-38', 'series', 54)),
    ),
    (0.5, 0.3, True, 'quadrature'): (
        (('quadrature last',),
         ('0x1.7ccde6e622debp-3', '0x1.a2f1306bf2462p-36', 'quadrature', 75)),
        (('quadrature zone',),
         ('0x1.3fc37accb7e22p-4', '0x1.cceb0efa86b6bp-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.3a9abf3a67f49p-4', '0x1.c4d8e3065b0bep-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.3333333318a55p-4', '0x1.b94de0b6eb2aep-37', 'quadrature', 73)),
        (('quadrature band',),
         ('0x1.2c2b21c6d9d05p-4', '0x1.ae631dee7c01ap-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.27ac7d692ad57p-4', '0x1.a136a2bda8ba3p-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.2773f3316b480p-4', '0x1.a0c19523e04c8p-37', 'quadrature', 73)),
        (('quadrature band reflected',),
         ('0x1.2717e64b14ecfp-4', '0x1.a0031ddd68e2dp-37', 'quadrature', 73)),
        (('quadrature zone reflected',),
         ('0x1.257b3c1b373e3p-4', '0x1.9caed4aeb94e1p-37', 'quadrature', 73)),
        (('quadrature last reflected',),
         ('0x1.261bc322dac8cp-5', '0x1.fe358d59a2394p-39', 'quadrature', 74)),
    ),
}


# (value, error estimate) of the 30-digit integral at each (alpha, rho,
# derivative, beta) of a result row
ORACLE = {
    (0.5, 0.3, False, 0.3): ("0x1.3ca998ebc4ea5p-3", "0x1.6f9524af22a8bp-142"),
    (0.5, 0.3, False, 0.95): ("0x1.d5d0bd46dc1a6p-3", "0x1.220382599eb70p-135"),
    (0.5, 0.3, False, 0.97): ("0x1.d8fcb0e8d71e4p-3", "0x1.67496aac7f356p-132"),
    (0.5, 0.3, False, 1.0): ("0x1.dda66e71415b1p-3", "0x1.67496aac7f356p-132"),
    (0.5, 0.3, False, 1.03): ("0x1.e23476dcc01fbp-3", "0x1.c0b4664e80af3p-129"),
    (0.5, 0.3, False, 1.05): ("0x1.e52f1c516b64dp-3", "0x1.c0b4664e80af3p-129"),
    (0.5, 0.3, False, 1.051): ("0x1.e554f15653188p-3", "0x1.c0b4664e80af3p-129"),
    (0.5, 0.3, False, 1.0526315789473684): ("0x1.e5929bb1235cbp-3", "0x1.c0b4664e80af3p-129"),
    (0.5, 0.3, False, 1.06): ("0x1.e6a82a85dbf3bp-3", "0x1.c0b4664e80af3p-129"),
    (0.5, 0.3, False, 2.5): ("0x1.3c291d404f7c9p-2", "0x1.abcb125403546p-162"),
    (0.5, 0.3, True, 0.3): ("0x1.7ccde6e60606dp-3", "0x1.6fe8fa6a70d6dp-143"),
    (0.5, 0.3, True, 0.95): ("0x1.3fc37accd5d32p-4", "0x1.6f8ac8cca92cdp-142"),
    (0.5, 0.3, True, 0.97): ("0x1.3a9abf3a84955p-4", "0x1.220382599eb70p-136"),
    (0.5, 0.3, True, 1.0): ("0x1.3333333333333p-4", "0x1.67496aac7f356p-133"),
    (0.5, 0.3, True, 1.03): ("0x1.2c2b21c6f2343p-4", "0x1.67496aac7f356p-133"),
    (0.5, 0.3, True, 1.05): ("0x1.27ac7d690fd0ap-4", "0x1.67496aac7f356p-133"),
    (0.5, 0.3, True, 1.051): ("0x1.2773f3315042cp-4", "0x1.66f6b83f581aap-133"),
    (0.5, 0.3, True, 1.0526315789473684): ("0x1.2717e64af9e74p-4", "0x1.66f6b83f581aap-133"),
    (0.5, 0.3, True, 1.06): ("0x1.257b3c1b1c391p-4", "0x1.c0aa1000dbcbep-130"),
    (0.5, 0.3, True, 2.5): ("0x1.261bc322e678ep-5", "0x1.abe016c16d012p-110"),
    (0.8, 0.25, False, 0.3): ("0x1.fc31aa21dd107p-4", "0x1.09d2d6f7a64a5p-155"),
    (0.8, 0.25, False, 0.95): ("0x1.be92ee3f84e0bp-3", "0x1.f5f19127483fap-136"),
    (0.8, 0.25, False, 0.97): ("0x1.c2c9d7b92acd9p-3", "0x1.39b6e8370daa9p-132"),
    (0.8, 0.25, False, 1.0): ("0x1.c8ff7c79a9a22p-3", "0x1.39b6e83719cb0p-132"),
    (0.8, 0.25, False, 1.03): ("0x1.cf141704bb51ap-3", "0x1.39b6e83719cb0p-132"),
    (0.8, 0.25, False, 1.05): ("0x1.d310375b70d1cp-3", "0x1.f5f19127483fap-136"),
    (0.8, 0.25, False, 1.051): ("0x1.d342dcbcde9dbp-3", "0x1.f5f19127483fap-136"),
    (0.8, 0.25, False, 1.0526315789473684): ("0x1.d3956c228e8e8p-3", "0x1.918efa9864d6ep-139"),
    (0.8, 0.25, False, 1.06): ("0x1.d50927c6e0124p-3", "0x1.918efa9864d6ep-139"),
    (0.8, 0.25, False, 2.5): ("0x1.4f13e3f409388p-2", "0x1.75fa0d5cf7f2fp-109"),
    (0.8, 0.25, True, 0.3): ("0x1.bd752d8fe8146p-3", "0x1.09cd61fd71198p-152"),
    (0.8, 0.25, True, 0.95): ("0x1.a8861275c411ep-4", "0x1.918e0db85a4e2p-136"),
    (0.8, 0.25, True, 0.97): ("0x1.a268d889eb677p-4", "0x1.f5f1738b46ee9p-133"),
    (0.8, 0.25, True, 1.0): ("0x1.999999999999ap-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 1.03): ("0x1.91323afb8e18dp-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 1.05): ("0x1.8bce017661572p-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 1.051): ("0x1.8b8a1536f03bdp-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 1.0526315789473684): ("0x1.8b1b7adc1dc47p-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 1.06): ("0x1.892b54d59bab7p-4", "0x1.f5f1738b5a874p-133"),
    (0.8, 0.25, True, 2.5): ("0x1.9fbd0684854a9p-5", "0x1.2b2e71172cc26p-109"),
    (1.4142135623730951, 0.5, False, 0.3): ("0x1.dfed39065c8dep-3", "0x1.527c317b035c4p-115"),
    (1.4142135623730951, 0.5, False, 0.95): ("0x1.11e928ce6b5e3p-1", "0x1.5284dbc125c67p-115"),
    (1.4142135623730951, 0.5, False, 0.97): ("0x1.159d6d92e13aep-1", "0x1.5284dbc125c67p-115"),
    (1.4142135623730951, 0.5, False, 1.0): ("0x1.1b1790c1449d9p-1", "0x1.52d2d87093f81p-115"),
    (1.4142135623730951, 0.5, False, 1.03): ("0x1.207a2c7c41645p-1", "0x1.117ef908b4b98p-118"),
    (1.4142135623730951, 0.5, False, 1.05): ("0x1.2404977f1d2bap-1", "0x1.117ef908b4b98p-118"),
    (1.4142135623730951, 0.5, False, 1.051): ("0x1.2431a6fe61f69p-1", "0x1.117ef908b4b98p-118"),
    (1.4142135623730951, 0.5, False, 1.0526315789473684): ("0x1.247b1e8fd1fa5p-1", "0x1.117ef908b4b98p-118"),
    (1.4142135623730951, 0.5, False, 1.06): ("0x1.25c6182e0f20cp-1", "0x1.117ef908b4b98p-118"),
    (1.4142135623730951, 0.5, False, 2.5): ("0x1.e1459950197cbp-1", "0x1.7d9e302b9f07fp-144"),
    (1.4142135623730951, 0.5, True, 0.3): ("0x1.380bb5d411d20p-1", "0x1.7efd91ec2547ep-118"),
    (1.4142135623730951, 0.5, True, 0.95): ("0x1.7492afeb9465ep-2", "0x1.deb1eea994f84p-115"),
    (1.4142135623730951, 0.5, True, 0.97): ("0x1.7047abcdabab9p-2", "0x1.e37a2765bddcep-115"),
    (1.4142135623730951, 0.5, True, 1.0): ("0x1.6a09e667f3bcdp-2", "0x1.7f55cd5ce0917p-118"),
    (1.4142135623730951, 0.5, True, 1.03): ("0x1.6405e35476185p-2", "0x1.82c81fc43315fp-118"),
    (1.4142135623730951, 0.5, True, 1.05): ("0x1.6021ac13bcdbap-2", "0x1.82c81fc43315fp-118"),
    (1.4142135623730951, 0.5, True, 1.051): ("0x1.5ff07afabbe33p-2", "0x1.82c81fc43315fp-118"),
    (1.4142135623730951, 0.5, True, 1.0526315789473684): ("0x1.5fa05848940d6p-2", "0x1.82c81fc43315fp-118"),
    (1.4142135623730951, 0.5, True, 1.06): ("0x1.5e385b7365130p-2", "0x1.82c81fc43315fp-118"),
    (1.4142135623730951, 0.5, True, 2.5): ("0x1.8fbe30cd5f7dbp-3", "0x1.91f5c6d77c8f2p-138"),
}


def _outcome(alpha, rho, derivative, method, beta):
    params = validate(alpha, rho)
    choice = MethodChoice(method)
    try:
        planned = tuple((step.method.value, step.reason, step.run is not None)
                        for step in kappa_module.plan(params, beta, derivative, choice))
    except Exception as exc:  # noqa: BLE001  (the pin names the type raised)
        planned = type(exc).__name__
    try:
        res = (gprime_any_beta if derivative else g_any_beta)(params, beta, choice)
        result = (res.value.hex(), res.abs_error_bound.hex(), res.method.value,
                  res.terms_or_nodes_used)
    except Exception as exc:  # noqa: BLE001
        result = type(exc).__name__
    return planned, result


def _expected(pin):
    planned, result = pin
    if not isinstance(planned, str):
        planned = tuple(STEPS[name] for name in planned)
    return planned, result


def test_plan_pins_cover_every_case():
    assert len(PINS) == 3 * 2 * 4
    assert all(len(pins) == len(BETAS) for pins in PINS.values())
    assert {m for *_, m in PINS} == {m.value for m in MethodChoice}


@pytest.mark.parametrize("warm", [False, True])
def test_plan_and_values_match_their_pins(warm):
    kappa_module._steps.cache_clear()
    if warm:
        for key in PINS:
            for beta in BETAS:
                _outcome(*key, beta)
    for key, pins in PINS.items():
        for beta, pin in zip(BETAS, pins):
            if not warm:
                kappa_module._steps.cache_clear()
            assert _outcome(*key, beta) == _expected(pin), (key, beta)


def test_series_rows_lie_within_their_bounds_of_the_oracle():
    # every row that returns, by each method, g and g'
    rows = 0
    for (alpha, rho, derivative, _), pins in PINS.items():
        for beta, (_, result) in zip(BETAS, pins):
            if isinstance(result, str):
                continue
            value, bound = float.fromhex(result[0]), float.fromhex(result[1])
            ref, err = (float.fromhex(x) for x in ORACLE[alpha, rho, derivative, beta])
            assert abs(value - ref) <= bound - err - 0.5 * math.ulp(ref), (alpha, beta)
            rows += 1
    assert rows == 224


if __name__ == "__main__":
    from oracles import g_mpmath, gprime_mpmath

    names = {step: name for name, step in STEPS.items()}
    rows = {}
    print("PINS = {")
    for (alpha, rho), derivative, method in itertools.product(
            ALPHAS, (False, True), ("auto", "doney", "series", "quadrature")):
        print(f"    ({'SQRT2' if alpha == SQRT2 else repr(alpha)}, {rho!r}, {derivative!r}, "
              f"{method!r}): (")
        for beta in BETAS:
            planned, result = _outcome(alpha, rho, derivative, method, beta)
            if not isinstance(planned, str):
                planned = tuple(names[step] for step in planned)
            print(f"        ({planned!r},\n         {result!r}),")
            if not isinstance(result, str):
                rows[alpha, rho, derivative, beta] = None
        print("    ),")
    print("}")
    print("ORACLE = {")
    for alpha, rho, derivative, beta in sorted(rows):
        ref, err = (gprime_mpmath if derivative else g_mpmath)(alpha, rho, beta)
        print(f'    {(alpha, rho, derivative, beta)!r}: ("{float(ref).hex()}", '
              f'"{float(err).hex()}"),')
    print("}")
    sys.exit(0)
