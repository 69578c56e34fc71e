"""Spectral families in finite lattices, observable functions on their
dual-ideal spectra, matrix-algebra coarse graining, the classical
finite-topology dictionary, and contextual observables with presheaf gluing.
"""

from .errors import (ObslatError, InputError, PreconditionError,
                     ResourceError, CheckFailure)
from .lattice import FiniteOrthoLattice, bits, mask_from
from .corpus import (boolean_algebra, chain, mo, o6, product,
                     standard_lattices)
from .stone import (DualIdeal, principal, cone, is_filter_base,
                    enumerate_dual_ideals, enumerate_quasipoints, basis_set,
                    quasipoints_over_center, inclusion_dot)
from .spectral import (SpectralFamily, spectral_family, constant_family,
                       projection_family, restrict_family, sample_family)
from .observables import (ObservableFunction, observable, observable_table,
                         observable_from_spectral,
                         check_intersection_condition,
                         check_upper_semicontinuous, reconstruct,
                         check_completely_increasing,
                         observable_from_increasing,
                         observability_criterion, restrict_observable)
from .vn import (Tolerances, TOL, OperatorSpectralFamily, VNSubalgebra,
                 eigen_hermitian, spectral_family_of, family_from_steps,
                 spectral_leq, spectral_meet, spectral_join, subalgebra,
                 trivial_algebra, joint_eigenblocks, core_projection, support_projection, rho_restrict,
                 sigma_restrict, atomic_value)
from .classical import (FiniteTopSpace, TopSpectralFamily, discrete_space,
                        sierpinski3, digital_line, top_spectral_family,
                        sigma_from_function, induced_function,
                        is_continuous_function, is_continuous_family,
                        open_set_lattice, lattice_family_of, all_topologies,
                        demo_family, continuous_functions)
from .presheaf import (LatticePresheaf, lattice_presheaf, check_presheaf,
                       check_sheaf_condition, stalk, germ, sheafify,
                       spectral_presheaf, function_presheaf)
from .context import (Context, ContextDiagram, context_from_generators,
                      diagram, section_from_operator, is_global_section,
                      glue_section, GlueReport)

__all__ = [name for name in dir() if not name.startswith("_")]
